(* Child processes: the shipped [oasis] executable, run as a user
   would. Every child is waited for before the benchmark exits. *)

external wait4 : int -> int * int = "perfbench_wait4"
(** [(exit code, peak RSS in KiB)]; signals map to 128 + signo. *)

let oasis = ref ".perfbench/ws/_build/default/bin/oasis_cli.exe"
let now = Unix.gettimeofday

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

(* Start [oasis ARGS] with its output in [log]. *)
let spawn ~log args =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let inp = devnull () in
  let pid = Unix.create_process !oasis (Array.of_list (!oasis :: args)) inp out out in
  Unix.close out;
  Unix.close inp;
  pid

type lines_run = {
  wall : float;
  rss_kb : int;
  lines : (float * string) list;  (** each line with its arrival time *)
}

(* Run with stdout on a pipe, stamping each line with the time (since
   launch) the chunk carrying it arrived. *)
let run_lines args =
  let r, w = Unix.pipe ~cloexec:true () in
  let inp = devnull () in
  let t0 = now () in
  let pid = Unix.create_process !oasis (Array.of_list (!oasis :: args)) inp w w in
  Unix.close w;
  Unix.close inp;
  let buf = Bytes.create 65536 in
  let lines = ref [] in
  let partial = Buffer.create 256 in
  let rec loop () =
    match Unix.read r buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
      let at = now () -. t0 in
      for i = 0 to n - 1 do
        let c = Bytes.get buf i in
        if c = '\n' then begin
          lines := (at, Buffer.contents partial) :: !lines;
          Buffer.clear partial
        end
        else Buffer.add_char partial c
      done;
      loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ();
  Unix.close r;
  let code, rss_kb = wait4 pid in
  let wall = now () -. t0 in
  if code <> 0 then
    failwith (Printf.sprintf "oasis %s exited with %d" (String.concat " " args) code);
  { wall; rss_kb; lines = List.rev !lines }

(* Run [exe ARGS] to completion, its output on our standard error. *)
let run exe args =
  let inp = devnull () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) inp Unix.stderr Unix.stderr in
  Unix.close inp;
  let code, _ = wait4 pid in
  if code <> 0 then
    failwith (Printf.sprintf "%s %s exited with %d" exe (String.concat " " args) code)

(* Peak resident set of a live process, from /proc (KiB). *)
let vm_hwm_kb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line -> (
          match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
          | kb -> kb
          | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> find ())
        | exception End_of_file -> failwith "VmHWM missing from /proc status"
      in
      find ())

(* --- the daemon --- *)

type daemon = { pid : int; socket : string }

(* One non-search exchange that, like the search loop, returns only
   after the server has closed the connection and so released its
   slot: a closed loop never has two requests in flight. *)
let exchange socket req =
  let c = Serve.Client.connect socket in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close c)
    (fun () ->
      Serve.Client.send c req;
      let reply = Serve.Client.recv c in
      ignore (Serve.Client.recv c);
      reply)

let ping socket =
  match exchange socket Serve.Protocol.Ping with
  | Ok Serve.Protocol.Pong -> true
  | Ok _ | Error _ -> false
  | exception Unix.Unix_error _ -> false

(* Launch [oasis serve] and return once it answers its first Ping,
   with the launch-to-ready time. *)
let start_daemon ~log ~socket args =
  (try Sys.remove socket with Sys_error _ -> ());
  let t0 = now () in
  let pid = spawn ~log ("serve" :: "--socket" :: socket :: args) in
  let rec wait () =
    if ping socket then ()
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        Unix.sleepf 0.001;
        wait ()
      | _ ->
        failwith (Printf.sprintf "oasis serve exited before it was ready (see %s)" log)
  in
  wait ();
  ({ pid; socket }, now () -. t0)

let stop_daemon d =
  (match Serve.Client.request ~path:d.socket Serve.Protocol.Shutdown with
  | _ -> ()
  | exception Unix.Unix_error _ -> (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  let code, _ = wait4 d.pid in
  if code <> 0 then failwith (Printf.sprintf "oasis serve exited with %d" code)

let stats d =
  match exchange d.socket Serve.Protocol.Stats with
  | Ok (Serve.Protocol.Stats_reply pairs) -> pairs
  | Ok _ -> failwith "stats: unexpected reply"
  | Error e -> failwith ("stats: " ^ Serve.Protocol.error_to_string e)
