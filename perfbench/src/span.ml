(* In-memory span recorder for the traced run. Spans are recorded from
   the benchmark's own code around calls into each layer; nothing is
   written until the run ends. [with_span] nests spans on the calling
   domain; [record] adds a span timed elsewhere (another domain) under
   an explicit parent. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  request : int;  (** -1 outside any request *)
  start : float;
  stop : float;
}

type t = {
  mutable enabled : bool;
  lock : Mutex.t;  (** guards [spans] and [next_id] *)
  mutable spans : span list;
  mutable next_id : int;
  mutable stack : int list;  (** open [with_span] spans, innermost first *)
  mutable current : int;  (** request id of the spans being opened *)
}

let create () =
  { enabled = true; lock = Mutex.create (); spans = []; next_id = 0; stack = []; current = -1 }

let now = Unix.gettimeofday

let fresh_id t =
  Mutex.protect t.lock (fun () ->
      let id = t.next_id in
      t.next_id <- id + 1;
      id)

let add t s = Mutex.protect t.lock (fun () -> t.spans <- s :: t.spans)

(* The innermost open [with_span] span, for [record]'s [parent]. *)
let top t = match t.stack with p :: _ -> p | [] -> -1

let record t ~name ~parent ~request ~start ~stop =
  add t { id = fresh_id t; name; parent; request; start; stop }

let with_span t name f =
  if not t.enabled then f ()
  else begin
    let id = fresh_id t in
    let parent = top t in
    t.stack <- id :: t.stack;
    let start = now () in
    let finish () =
      let stop = now () in
      t.stack <- List.tl t.stack;
      add t { id; name; parent; request = t.current; start; stop }
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Run [f] as request [r]: spans opened inside carry its id. *)
let with_request t r name f =
  let saved = t.current in
  t.current <- r;
  Fun.protect ~finally:(fun () -> t.current <- saved) (fun () -> with_span t name f)

(* Add spans recorded by another process's recorder, renumbered past
   this one's ids so the two sets never share one. *)
let adopt t spans =
  let width = 1 + List.fold_left (fun a s -> max a s.id) (-1) spans in
  let base =
    Mutex.protect t.lock (fun () ->
        let b = t.next_id in
        t.next_id <- b + width;
        b)
  in
  List.iter
    (fun s ->
      add t { s with id = s.id + base; parent = (if s.parent < 0 then -1 else s.parent + base) })
    spans

let spans t = Mutex.protect t.lock (fun () -> List.rev t.spans)
let duration s = s.stop -. s.start

(* Self time: a span's duration minus the time its direct children
   cover (children of one parent do not overlap: they run one after
   another on the request's blocking path). *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    spans

let named name spans = List.filter (fun s -> s.name = name) spans

let root_of spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec up s = if s.parent < 0 then s else up (Hashtbl.find by_id s.parent) in
  up

(* Spans named [name] that descend from a root span named [root]. *)
let under ~root name spans =
  let up = root_of spans in
  List.filter (fun s -> s.name = name && s.parent >= 0 && (up s).name = root) spans

(* Each root span named [root], with the seconds its descendants' self
   times account for; the rest of the root is time no layer span
   covers. *)
let covered ~root spans =
  let selfs = self_times spans in
  let root_of = root_of spans in
  let covered = Hashtbl.create 256 in
  List.iter
    (fun (s, self) ->
      if s.parent >= 0 then begin
        let r = root_of s in
        Hashtbl.replace covered r.id
          (self +. Option.value ~default:0. (Hashtbl.find_opt covered r.id))
      end)
    selfs;
  List.map
    (fun r -> (r, Option.value ~default:0. (Hashtbl.find_opt covered r.id)))
    (named root spans)

let write_jsonl path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%d,\"request\":%d,\"start\":%.9f,\"end\":%.9f}\n"
            s.id s.name s.parent s.request s.start s.stop)
        spans)
