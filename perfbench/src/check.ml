(* Output checking against the [Oasis.Reference] oracle. Every
   expected stream is computed once per seed, before anything is timed. *)

type hit = { seq_id : string; score : int; query_stop : int; target_stop : int }

let of_reference db (h : Oasis.Hit.t) =
  {
    seq_id = Bioseq.Sequence.id (Bioseq.Database.seq db h.seq_index);
    score = h.score;
    query_stop = h.query_stop;
    target_stop = h.target_stop;
  }

let of_wire (h : Serve.Protocol.hit) =
  {
    seq_id = h.seq_id;
    score = h.score;
    query_stop = h.query_stop;
    target_stop = h.target_stop;
  }

let show h =
  Printf.sprintf "%s/%d/%d/%d" h.seq_id h.score h.query_stop h.target_stop

let rec take k = function
  | x :: rest when k > 0 -> x :: take (k - 1) rest
  | _ -> []

(* Full reference streams for [queries] (one list per query). *)
let reference ~tree ~db ~config queries =
  Array.of_list
    (List.map
       (fun query ->
         let r = Oasis.Reference.Mem.create ~source:tree ~db ~query config in
         List.map (of_reference db) (Oasis.Reference.Mem.run r))
       queries)

(* [stream ~expected got] is [Ok ()] when [got] equals [expected]
   element for element; otherwise it names the first difference. *)
let stream ~expected got =
  let rec go i e g =
    match (e, g) with
    | [], [] -> Ok ()
    | x :: _, [] -> Error (Printf.sprintf "hit %d missing (expected %s)" i (show x))
    | [], y :: _ -> Error (Printf.sprintf "extra hit %d: %s" i (show y))
    | x :: e, y :: g ->
      if x = y then go (i + 1) e g
      else
        Error (Printf.sprintf "hit %d: expected %s, got %s" i (show x) (show y))
  in
  go 1 expected got

(* --- `oasis search --queries` plain output --- *)

type cli_query = { id : string; count : int; lines : hit list }

(* Parse the CLI's per-query blocks: a "# query ID: N hit(s)" header
   followed by "RANK. SEQID score S (ends: query Q, target T)" lines.
   Other comment lines are ignored. *)
let parse_cli lines =
  let blocks = ref [] in
  let cur = ref None in
  let flush () =
    match !cur with
    | Some (id, count, hs) -> blocks := { id; count; lines = List.rev hs } :: !blocks
    | None -> ()
  in
  List.iter
    (fun line ->
      match Scanf.sscanf line "# query %s@: %d hit" (fun id n -> (id, n)) with
      | id, n ->
        flush ();
        cur := Some (id, n, [])
      | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> (
        match
          Scanf.sscanf line " %d. %s score %d (ends: query %d, target %d)"
            (fun _ id s q t -> { seq_id = id; score = s; query_stop = q; target_stop = t })
        with
        | h -> (
          match !cur with
          | Some (id, n, hs) -> cur := Some (id, n, h :: hs)
          | None -> ())
        | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> ()))
    lines;
  flush ();
  List.rev !blocks

(* One result per query: [Ok ()] when its header count equals the full
   reference stream's length and its printed lines are the first [top]
   reference hits. A query missing from the output is an error too. *)
let cli ~top ~ids ~expected blocks =
  let by_id = Hashtbl.create 64 in
  List.iter (fun b -> Hashtbl.replace by_id b.id b) blocks;
  Array.mapi
    (fun i id ->
      match Hashtbl.find_opt by_id id with
      | None -> Error (Printf.sprintf "query %s missing from output" id)
      | Some b ->
        let full = expected.(i) in
        if b.count <> List.length full then
          Error
            (Printf.sprintf "query %s: header says %d hits, reference has %d" id
               b.count (List.length full))
        else
          Result.map_error
            (fun m -> Printf.sprintf "query %s: %s" id m)
            (stream ~expected:(take top full) b.lines))
    ids
