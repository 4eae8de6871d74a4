(* End-to-end benchmark for the [oasis] executable.

   perfbench.exe --workload W --seed N --seconds S --trace 0|1

   Timed mode (--trace 0) drives the shipped executable the way a user
   does: [oasis serve] with one closed-loop client connection, or one
   [oasis search --queries] process per pass. Traced mode (--trace 1)
   calls each layer's public functions in the order the user path does,
   records spans around them, and prints per-layer metrics. Both modes
   check every output against [Oasis.Reference] and print one JSON
   object as the last line of standard output. See README.md. *)

open Perfbench_core

let now = Unix.gettimeofday

(* --- configuration shared by every workload --- *)

let work = ref ".perfbench"
let path name = Filename.concat !work name
let matrix = Scoring.Matrices.pam30
let matrix_name = "pam30"
let gap_penalty = 10
let gap = Scoring.Gap.linear gap_penalty
let min_score = 30
let top = 10
let pool_blocks = 768
let batch_size = 16
let setup_launches = 7
let daemon_workers = 1
let client_connections = 1
let config = Oasis.Engine.config ~matrix ~gap ~min_score ()

type workload = Serve_topk | Cli_batch

let workloads = [ ("serve_topk", Serve_topk); ("cli_batch", Cli_batch) ]

let queries_of w (inp : Gen.inputs) =
  match w with Serve_topk -> inp.motifs | Cli_batch -> inp.batch

(* --- result line --- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           if not (Float.is_finite x.value) then
             failwith (Printf.sprintf "metric %s is not finite" x.name);
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value x.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* --- inputs and reference streams (outside every timed region) --- *)

let write_inputs w inp =
  Bioseq.Fasta.write_file (path "db.fa") (Gen.db_sequences inp.Gen.db);
  Bioseq.Fasta.write_file (path "queries.fa") (queries_of w inp);
  Bioseq.Fasta.write_file (path "one.fa") [ List.hd (queries_of w inp) ]

(* Full reference streams for [queries], computed on both cores (the
   tree is immutable once built, so the halves share it). *)
let compute_reference db queries =
  let tree = Suffix_tree.Ukkonen.build db in
  let qs = Array.of_list queries in
  let n = Array.length qs in
  let half = n / 2 in
  let part lo hi () =
    Check.reference ~tree ~db ~config (Array.to_list (Array.sub qs lo (hi - lo)))
  in
  let d = Domain.spawn (part half n) in
  let a = part 0 half () in
  Array.append a (Domain.join d)

(* Reference streams are kept in the work directory under a digest of
   everything they depend on: the input files as written, the search
   settings, and this executable, which holds [Oasis.Reference], the
   checker and the marshalled type. A seed's later runs of the same
   build in the same checkout reuse them; any rebuild that changes the
   code computes them afresh. *)
let reference db queries =
  let key =
    Digest.to_hex
      (Digest.string
         (String.concat "/"
            [
              Digest.file Sys.executable_name;
              Digest.file (path "db.fa");
              Digest.file (path "queries.fa");
              matrix_name;
              string_of_int gap_penalty;
              string_of_int min_score;
            ]))
  in
  let file = path ("reference-" ^ key) in
  match In_channel.with_open_bin file Marshal.from_channel with
  | (r : Check.hit list array) when Array.length r = List.length queries -> r
  | _ | (exception Sys_error _) | (exception End_of_file) | (exception Failure _) ->
    let t0 = now () in
    let r = compute_reference db queries in
    Printf.printf "# reference streams computed in %.1fs\n" (now () -. t0);
    let tmp = file ^ ".tmp" in
    Out_channel.with_open_bin tmp (fun oc -> Marshal.to_channel oc r []);
    Sys.rename tmp file;
    r

(* A daemon request streams at most [top] hits. *)
let capped full = Array.map (Check.take top) full

(* --- guard rails --- *)

let nproc () = Domain.recommended_domain_count ()

let check_load_shape () =
  let busy = daemon_workers + client_connections in
  if busy > nproc () then
    failwith
      (Printf.sprintf
         "refusing to run: %d daemon workers + %d client connections exceed \
          %d CPUs"
         daemon_workers client_connections (nproc ()))

(* --- the daemon workloads --- *)

let wire_search query =
  Serve.Protocol.Search
    {
      query = Bioseq.Sequence.to_string query;
      matrix = matrix_name;
      gap = Serve.Protocol.Linear { penalty = gap_penalty };
      min_score;
      max_hits = Some top;
      max_columns = None;
      max_expanded = None;
      time_limit = None;
      seed_cutoff = false;
    }

type reply = {
  latency : float;  (** connect+send to [Done], seconds *)
  first_hit : float;  (** to the first [Hit], or to [Done] for no hits *)
  server_wall_us : int;
  ok : bool;
}

(* A failed request still yields a finite time: when it failed. *)
let failed_reply t0 =
  let latency = now () -. t0 in
  { latency; first_hit = latency; server_wall_us = 0; ok = false }

(* One request on a fresh connection; [ok] only when the stream equals
   [expected] and ends in a Complete [Done] carrying the right count. *)
let request socket req expected =
  let t0 = now () in
  match Serve.Client.connect socket with
  | exception Unix.Unix_error _ -> failed_reply t0
  | c ->
    Fun.protect
      ~finally:(fun () -> Serve.Client.close c)
      (fun () ->
        match Serve.Client.send c req with
        | exception Unix.Unix_error _ -> failed_reply t0
        | () ->
          let first = ref nan in
          let rec loop acc =
            match Serve.Client.recv c with
            | Ok (Serve.Protocol.Hit h) ->
              if Float.is_nan !first then first := now () -. t0;
              loop (Check.of_wire h :: acc)
            | Ok (Serve.Protocol.Done { outcome; hits; wall_us }) ->
              let latency = now () -. t0 in
              (* The server closes the connection after it has released
                 the request's slot; waiting for that keeps the loop
                 closed, so the next request never overlaps this one. *)
              let closed = Serve.Client.recv c = Error Serve.Protocol.Closed in
              let got = List.rev acc in
              let ok =
                closed
                && outcome = Serve.Protocol.Complete
                && hits = List.length got
                && Check.stream ~expected got = Ok ()
              in
              {
                latency;
                first_hit = (if Float.is_nan !first then latency else !first);
                server_wall_us = wall_us;
                ok;
              }
            | Ok _ | Error _ -> failed_reply t0
          in
          loop [])

(* One whole pass over the request list, in its fixed order. *)
let pass socket reqs expected =
  let t0 = now () in
  let replies = Array.mapi (fun i req -> request socket req expected.(i)) reqs in
  (replies, now () -. t0)

(* Live children, killed and reaped if the benchmark dies early. *)
let live : Proc.daemon list ref = ref []

(* Launch [oasis serve] on the database and time launch-to-ready. *)
let start ?(name = "d") () =
  let d, t =
    Proc.start_daemon ~log:(path (name ^ ".log")) ~socket:(path (name ^ ".sock"))
      [ "--workers"; string_of_int daemon_workers; "--db"; path "db.fa" ]
  in
  live := d :: !live;
  (d, t)

let stop d =
  live := List.filter (fun x -> x != d) !live;
  Proc.stop_daemon d

(* Run whole passes until the next one would overrun [seconds] (at
   least two); the pass in progress always finishes. *)
let timed_passes ~seconds run_pass =
  let t0 = now () in
  let rec go acc n last =
    let elapsed = now () -. t0 in
    if n >= 2 && elapsed +. last > seconds then List.rev acc
    else
      let r, dt = run_pass () in
      go ((r, dt) :: acc) (n + 1) dt
  in
  go [] 0 0.

let ms x = x *. 1e3

let serve_timed ~seconds (inp : Gen.inputs) =
  let queries = inp.motifs in
  let expected = capped (reference inp.db queries) in
  Gc.compact ();
  let reqs = Array.of_list (List.map wire_search queries) in
  let n = Array.length reqs in
  (* Set-up samples are spread over the run, one after each pass, so
     they see the host's speed at different moments; the extra daemons
     start while the measured one is idle. *)
  let d, t_first = start () in
  let setups = ref [ t_first ] in
  let sample_setup () =
    if List.length !setups < setup_launches then begin
      let d', t = start ~name:"setup" () in
      stop d';
      setups := t :: !setups
    end
  in
  let warm, _ = pass d.socket reqs expected in
  sample_setup ();
  let passes =
    timed_passes ~seconds (fun () ->
        let r = pass d.socket reqs expected in
        sample_setup ();
        r)
  in
  while List.length !setups < setup_launches do
    sample_setup ()
  done;
  let setup_s = Stats.median !setups in
  let stats = Proc.stats d in
  let rss_kb = Proc.vm_hwm_kb d.pid in
  stop d;
  let all = warm :: List.map fst passes in
  let attempted = n * List.length all in
  let failed =
    List.fold_left
      (fun acc r -> acc + Array.fold_left (fun a x -> if x.ok then a else a + 1) 0 r)
      0 all
  in
  let in_flight_peak = List.assoc "serve.in_flight_peak" stats in
  if in_flight_peak > 1 then
    failwith
      (Printf.sprintf "serve.in_flight_peak = %d: the client loop was not closed"
         in_flight_peak);
  let measured = List.map fst passes in
  let lat = Stats.fastest_pass (List.map (Array.map (fun r -> r.latency)) measured) in
  let first = Stats.fastest_pass (List.map (Array.map (fun r -> r.first_hit)) measured) in
  Printf.printf "# %d requests x %d measured passes (+1 warm-up); latency over %d samples\n"
    n (List.length passes) (List.length lat);
  let pct xs =
    String.concat " "
      (List.map
         (fun p -> Printf.sprintf "p%g=%.3f" p (ms (Stats.percentile_exn p xs)))
         [ 10.; 25.; 50.; 75.; 90. ])
  in
  Printf.printf "# latency %s\n# first hit %s\n" (pct lat) (pct first);
  Printf.printf "# pass seconds: %s; set-up samples: %s\n"
    (String.concat " " (List.map (fun (_, dt) -> Printf.sprintf "%.3f" dt) passes))
    (String.concat " " (List.map (Printf.sprintf "%.3f") !setups));
  ( failed = 0,
    attempted,
    failed,
    [
      m "setup_s" "s" setup_s;
      (* One closed-loop connection: throughput is requests over the
         time they take, with the same fastest-pass estimate. *)
      m "throughput_qps" "queries/s" (float_of_int n /. Stats.sum lat);
      m "latency_p50_ms" "ms" (ms (Stats.percentile_exn 50. lat));
      m "latency_p90_ms" "ms" (ms (Stats.percentile_exn 90. lat));
      m "peak_rss_mb" "MB" (float_of_int rss_kb /. 1024.);
    ] )

(* --- the CLI batch workload --- *)

let search_args file =
  [ "search"; "--db"; path "db.fa"; "--queries"; file; "--top"; string_of_int top;
    "--min-score"; string_of_int min_score; "--matrix"; matrix_name;
    "--gap"; string_of_int gap_penalty ]

type batch_pass = {
  wall : float;
  rss_kb : int;
  header_at : float array;  (** per query, since launch *)
  errors : int;
}

(* One [oasis search --queries] process; [ids] in query-file order. *)
let batch_pass ~file ~ids ~expected =
  let r = Proc.run_lines (search_args file) in
  let index = Hashtbl.create 128 in
  Array.iteri (fun i id -> Hashtbl.replace index id i) ids;
  let n = Array.length ids in
  let header_at = Array.make n nan in
  List.iter
    (fun (at, line) ->
      match Scanf.sscanf line "# query %s@:" Fun.id with
      | id -> Option.iter (fun i -> header_at.(i) <- at) (Hashtbl.find_opt index id)
      | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> ())
    r.lines;
  (* A query the output never names counts as answered at exit. *)
  Array.iteri (fun i t -> if Float.is_nan t then header_at.(i) <- r.wall) header_at;
  let verdicts = Check.cli ~top ~ids ~expected (Check.parse_cli (List.map snd r.lines)) in
  let errors = Array.fold_left (fun a v -> if v = Ok () then a else a + 1) 0 verdicts in
  Array.iter (function Ok () -> () | Error e -> prerr_endline ("mismatch: " ^ e)) verdicts;
  ({ wall = r.wall; rss_kb = r.rss_kb; header_at; errors }, r.wall)

let batch_timed ~seconds (inp : Gen.inputs) =
  let queries = inp.batch in
  let full = reference inp.db queries in
  Gc.compact ();
  let ids = Array.of_list (List.map Bioseq.Sequence.id queries) in
  let n = Array.length ids in
  let one = [| ids.(0) |] in
  let setup () =
    fst (batch_pass ~file:(path "one.fa") ~ids:one ~expected:[| full.(0) |])
  in
  let run () = batch_pass ~file:(path "queries.fa") ~ids ~expected:full in
  (* As for the daemons: one set-up sample after each pass. *)
  let setups = ref [ setup () ] in
  let sample_setup () =
    if List.length !setups < setup_launches then setups := setup () :: !setups
  in
  let warm, _ = run () in
  sample_setup ();
  let passes =
    List.map fst
      (timed_passes ~seconds (fun () ->
           let r = run () in
           sample_setup ();
           r))
  in
  while List.length !setups < setup_launches do
    sample_setup ()
  done;
  let setups = !setups in
  let setup_s = Stats.median (List.map (fun p -> p.wall) setups) in
  let all = warm :: passes in
  let attempted = List.length setups + (n * List.length all) in
  let failed =
    List.fold_left (fun a p -> a + p.errors) 0 (setups @ all)
  in
  let lat = Stats.fastest_pass (List.map (fun p -> p.header_at) passes) in
  let fastest = List.fold_left (fun a p -> Float.min a p.wall) infinity passes in
  let rss = List.fold_left (fun a p -> max a p.rss_kb) 0 passes in
  Printf.printf "# %d queries x %d measured passes (+1 warm-up); latency over %d samples\n"
    n (List.length passes) (List.length lat);
  Printf.printf "# set-up %.3fs is %.1f%% of the fastest pass (%.3fs)\n" setup_s
    (100. *. setup_s /. fastest) fastest;
  Printf.printf "# pass seconds: %s; set-up samples: %s\n"
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" p.wall) passes))
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" p.wall) setups));
  ( failed = 0,
    attempted,
    failed,
    [
      m "setup_s" "s" setup_s;
      m "throughput_qps" "queries/s" (float_of_int n /. fastest);
      m "latency_p50_ms" "ms" (ms (Stats.percentile_exn 50. lat));
      m "latency_p90_ms" "ms" (ms (Stats.percentile_exn 90. lat));
      m "peak_rss_mb" "MB" (float_of_int rss /. 1024.);
    ] )

(* --- traced run --- *)

let read_db tr file =
  Span.with_span tr "bioseq.fasta_read" (fun () ->
      Bioseq.Database.make (Bioseq.Fasta.read_file ~alphabet:Gen.alphabet file))

let index_files dir =
  List.map (Filename.concat dir) [ "symbols.dat"; "internal.dat"; "leaves.dat" ]

(* The writer [oasis index] calls. *)
let write_index tr ~dir tree =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Span.with_span tr "storage.index_build" (fun () ->
      match List.map Storage.Device.file (index_files dir) with
      | [ symbols; internal; leaves ] ->
        Storage.Disk_tree.write tree ~symbols ~internal ~leaves;
        List.iter Storage.Device.close [ symbols; internal; leaves ]
      | _ -> assert false)

let with_disk_tree ~dir f =
  match List.map Storage.Device.open_file (index_files dir) with
  | [ symbols; internal; leaves ] ->
    let pool = Storage.Buffer_pool.create ~block_size:2048 ~capacity:pool_blocks in
    Fun.protect
      ~finally:(fun () -> List.iter Storage.Device.close [ symbols; internal; leaves ])
      (fun () ->
        f (Storage.Disk_tree.open_ ~alphabet:Gen.alphabet ~pool ~symbols ~internal ~leaves ()))
  | _ -> assert false

(* A daemon worker whose engine stream is traced: each call into it
   (search, every next, finish) becomes an "oasis.engine" span under
   the request named in [on_path] (request id, root span id), and
   [first_hit] keeps each request's fastest time to its first hit. The
   server's own work between those calls (accept, request decode,
   dispatch, hit encode and socket writes) is left untraced, so it
   shows as the part of a request no layer span covers. *)
let traced_worker tr ~on_path ~first_hit (w : Serve.Backend.worker) =
  let search ~query ~config ~seed =
    match Atomic.get on_path with
    | None -> w.search ~query ~config ~seed
    | Some (request, parent) ->
      let timed f =
        let start = now () in
        let v = f () in
        Span.record tr ~name:"oasis.engine" ~parent ~request ~start ~stop:(now ());
        v
      in
      let t0 = now () in
      let (st : Serve.Backend.stream) = timed (fun () -> w.search ~query ~config ~seed) in
      let seen = ref false in
      let next () =
        let h = timed st.next in
        if h <> None && not !seen then begin
          seen := true;
          let a = first_hit.(request) in
          Atomic.set a (Float.min (Atomic.get a) (now () -. t0))
        end;
        h
      in
      { st with next; finish = (fun () -> timed st.finish) }
  in
  { w with search }

(* The server [oasis serve --db --workers 1] runs, in process on its
   own domains, with the CLI's default queue depth. *)
let with_server ~make_worker f =
  let socket = path "trace.sock" in
  let cfg =
    Serve.Server.config ~workers:daemon_workers ~queue_depth:16 ~alphabet:Gen.alphabet
      ~socket_path:socket ()
  in
  let srv = Serve.Server.create cfg ~make_worker in
  let d = Domain.spawn (fun () -> Serve.Server.run srv) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop srv;
      Domain.join d)
    (fun () ->
      let deadline = now () +. 30. in
      while not (Proc.ping socket) do
        if now () > deadline then failwith "in-process server never answered a Ping";
        Unix.sleepf 0.001
      done;
      f srv socket)

(* The CLI's plain batch output, as [oasis search --queries] prints it. *)
let render ~db queries hits =
  let b = Buffer.create 65536 in
  Array.iteri
    (fun qi q ->
      Printf.bprintf b "# query %s: %d hit(s)\n" (Bioseq.Sequence.id q) (List.length hits.(qi));
      List.iteri
        (fun i (h : Oasis.Hit.t) ->
          if i < top then
            Printf.bprintf b "%4d. %-24s score %-5d (ends: query %d, target %d)\n" (i + 1)
              (Bioseq.Sequence.id (Bioseq.Database.seq db h.seq_index))
              h.score h.query_stop h.target_stop)
        hits.(qi))
    queries;
  String.split_on_char '\n' (Buffer.contents b)

(* The in-memory batch mode of [oasis search --queries]: one fused
   [Batch_kernel.Mem] per chunk of [batch_size] queries. Returns every
   query's hits and the logical and physical DP column counts. *)
let fused_batch ~tree ~db queries =
  let module K = Oasis.Batch_kernel.Mem in
  let n = Array.length queries in
  let hits = Array.make n [] in
  let logical = ref 0 and physical = ref 0 in
  let base = ref 0 in
  while !base < n do
    let len = min batch_size (n - !base) in
    let k = K.create ~source:tree ~db ~queries:(Array.sub queries !base len) config in
    K.run k;
    physical := !physical + (K.shared_counters k).columns;
    for q = 0 to len - 1 do
      hits.(!base + q) <- K.hits k q;
      logical := !logical + (K.counters k q).columns
    done;
    base := !base + len
  done;
  (hits, !logical, !physical)

(* The CLI batch path, step by step as bin/oasis_cli.ml takes it: load,
   build, read the queries, the fused kernel, print. *)
let cli_path tr =
  Span.with_span tr "cli.search" (fun () ->
      let db = read_db tr (path "db.fa") in
      let tree = Span.with_span tr "suffix_tree.build" (fun () -> Suffix_tree.Ukkonen.build db) in
      let queries =
        Span.with_span tr "bioseq.fasta_read" (fun () ->
            Array.of_list (Bioseq.Fasta.read_file ~alphabet:Gen.alphabet (path "queries.fa")))
      in
      let hits, logical, physical =
        Span.with_span tr "batch.run" (fun () -> fused_batch ~tree ~db queries)
      in
      let lines = Span.with_span tr "report.print" (fun () -> render ~db queries hits) in
      (lines, float_of_int logical /. float_of_int physical))

type work = {
  counters : Oasis.Counters.t;
  hits : int;
  arena_peak : int;
}

(* Exact engine counters over one pass of [queries], each stopped at
   [limit] hits the way the daemon stops a capped stream. *)
let count_pass ~limit queries engine =
  List.fold_left
    (fun acc q ->
      let c, hits = engine q ~limit in
      {
        counters = Oasis.Counters.merge acc.counters c;
        hits = acc.hits + hits;
        arena_peak = max acc.arena_peak c.Oasis.Counters.pool_peak_bytes;
      })
    { counters = Oasis.Counters.zero; hits = 0; arena_peak = 0 }
    queries

let mem_engine ~tree ~db =
  let session = Oasis.Engine.Mem.Session.create () in
  fun query ~limit ->
    let e = Oasis.Engine.Mem.create ~session ~source:tree ~db ~query config in
    let hits = List.length (Oasis.Engine.Mem.run ?limit e) in
    (Oasis.Engine.Mem.counters e, hits)

let disk_engine ~source ~db =
  let session = Oasis.Engine.Disk.Session.create () in
  fun query ~limit ->
    let e = Oasis.Engine.Disk.create ~session ~source ~db ~query config in
    let hits = List.length (Oasis.Engine.Disk.run ?limit e) in
    (Oasis.Engine.Disk.counters e, hits)

let durations name spans = List.map Span.duration (Span.named name spans)
let sum = Stats.sum
let us x = x *. 1e6
let failures ok xs = Array.fold_left (fun a x -> if ok x then a else a + 1) 0 xs

(* Layer self times must account for this share of the time requests
   take, and of a step-by-step CLI run; less means work no layer span
   covers.
   The shortest requests fall below it on their own: the server's
   untraced accept, dispatch and socket work is a fixed ~0.1 ms. *)
let min_coverage = 0.9

(* Step-by-step CLI runs and real CLI launches in the traced run, one
   of each per round. *)
let cli_rounds = 2

type steps_run = {
  steps_wall : float;  (** launch to exit of the step-by-step process *)
  covered : float;  (** the seconds its layer self times account for *)
  batch_s : float;  (** its [batch.run] spans *)
  lines : string list;
  sharing : float;
}

let traced ~name w (inp : Gen.inputs) =
  let queries = queries_of w inp in
  let full = reference inp.db queries in
  let expected = capped full in
  Gc.compact ();
  let tr = Span.create () in
  (* The CLI path. Each step-by-step run is a fresh process of this
     executable, timed from launch to exit like the real one, so it
     starts from the same small heap and pays the same heap growth; its
     layer self times must account for its own wall time. Real launches
     on the same file alternate with it, and each kind keeps its fastest
     of [cli_rounds], for comparing the two paths' wall times. *)
  let ids = Array.of_list (List.map Bioseq.Sequence.id queries) in
  let rounds =
    List.init cli_rounds (fun i ->
        let out = path (Printf.sprintf "cli-steps-%d" i) in
        let t0 = now () in
        Proc.run Sys.executable_name [ "--work"; !work; "--cli-steps"; out ];
        let steps_wall = now () -. t0 in
        let (spans : Span.span list), (lines : string list), (sharing : float) =
          In_channel.with_open_bin out Marshal.from_channel
        in
        let covered =
          match Span.covered ~root:"cli.search" spans with
          | [ (_, c) ] -> c
          | _ -> failwith "expected one step-by-step CLI run"
        in
        let batch_s = sum (durations "batch.run" spans) in
        Span.adopt tr spans;
        let launch = fst (batch_pass ~file:(path "queries.fa") ~ids ~expected:full) in
        ({ steps_wall; covered; batch_s; lines; sharing }, launch))
  in
  let steps = List.map fst rounds and launches = List.map snd rounds in
  let cli_failed =
    List.fold_left
      (fun a st ->
        a + failures Result.is_ok (Check.cli ~top ~ids ~expected:full (Check.parse_cli st.lines)))
      0 steps
  in
  let fastest_steps =
    List.fold_left (fun a st -> if st.steps_wall < a.steps_wall then st else a) (List.hd steps) steps
  in
  let cli_wall = List.fold_left (fun a p -> Float.min a p.wall) infinity launches in
  let db, tree =
    Span.with_span tr "setup" (fun () ->
        let db = read_db tr (path "db.fa") in
        let tree =
          Span.with_span tr "suffix_tree.build" (fun () -> Suffix_tree.Ukkonen.build db)
        in
        (db, tree))
  in
  (* Off both workloads' paths: the index the storage metrics read. *)
  let idx = path "trace-idx" in
  write_index tr ~dir:idx tree;
  let reqs = Array.of_list (List.map wire_search queries) in
  let n = Array.length reqs in
  (* The daemon path: the real server code over a real socket. Each
     traced request is a root span from connect to the server's close,
     with the engine calls beneath it. *)
  let on_path = Atomic.make None in
  let first_hit = Array.init n (fun _ -> Atomic.make infinity) in
  let make_worker _ =
    traced_worker tr ~on_path ~first_hit (Serve.Backend.mem ~tree ~db ())
  in
  let warm, passes, stats =
    with_server ~make_worker (fun srv socket ->
        let run_pass traced =
          let replies =
            Array.mapi
              (fun r req ->
                if not traced then request socket req expected.(r)
                else
                  Span.with_request tr r "request" (fun () ->
                      Atomic.set on_path (Some (r, Span.top tr));
                      request socket req expected.(r)))
              reqs
          in
          Atomic.set on_path None;
          (traced, replies)
        in
        let warm = snd (run_pass false) in
        (* Untraced and traced passes alternate, so both see the same
           host speed; each request keeps its fastest of each kind. *)
        let passes = List.map run_pass [ false; true; false; true ] in
        (warm, passes, Serve.Server.stats_pairs srv))
  in
  let of_kind traced = List.filter_map (fun (t, r) -> if t = traced then Some r else None) passes in
  let untraced = of_kind false and traced_passes = of_kind true in
  let fastest f rs = Stats.fastest_pass (List.map (Array.map f) rs) in
  let in_flight_peak = List.assoc "serve.in_flight_peak" stats in
  if in_flight_peak > 1 then
    failwith
      (Printf.sprintf "serve.in_flight_peak = %d: the client loop was not closed" in_flight_peak);
  let serve_failed =
    List.fold_left (fun a rs -> a + failures (fun r -> r.ok) rs) 0 (warm :: List.map snd passes)
  in
  let untraced_s = sum (fastest (fun r -> r.latency) untraced) in
  let traced_s = sum (fastest (fun r -> r.latency) traced_passes) in
  (* Codec costs, timed off the path on the same requests and hits. *)
  let decoded =
    Array.map
      (fun req ->
        let frame = Serve.Protocol.encode_request req in
        Span.with_span tr "serve.request_decode" (fun () ->
            match Serve.Protocol.read_request (Serve.Protocol.reader_of_string frame) with
            | Ok (Serve.Protocol.Search s) -> Result.is_ok (Serve.Backend.parse ~alphabet:Gen.alphabet s)
            | Ok _ | Error _ -> false))
      reqs
  in
  let hits_sent = Array.fold_left (fun a e -> a + List.length e) 0 expected in
  Array.iter
    (List.iter (fun (h : Check.hit) ->
         let hit =
           Serve.Protocol.Hit
             {
               seq_index = 0;
               score = h.score;
               query_stop = h.query_stop;
               target_stop = h.target_stop;
               seq_id = h.seq_id;
             }
         in
         ignore (Span.with_span tr "serve.hit_encode" (fun () -> Serve.Protocol.encode_response hit))))
    expected;
  (* Exact counters and pool statistics, off the clock. *)
  tr.enabled <- false;
  let limit = Some top in
  let pool_work =
    with_disk_tree ~dir:idx (fun source ->
        let engine = disk_engine ~source ~db in
        ignore (count_pass ~limit queries engine);
        count_pass ~limit queries engine)
  in
  let work = count_pass ~limit queries (mem_engine ~tree ~db) in
  tr.enabled <- true;
  List.iter
    (fun q ->
      ignore (Span.with_span tr "scoring.pssm_build" (fun () -> Scoring.Pssm.of_query ~matrix q)))
    queries;
  let spans = Span.spans tr in
  Span.write_jsonl (path ("trace-" ^ name ^ ".jsonl")) spans;
  let first name = Span.duration (List.hd (Span.under ~root:"setup" name spans)) in
  (* The engine's time in one request is the sum of its calls; each
     request keeps its fastest traced pass. *)
  let per_root = Hashtbl.create 1024 in
  List.iter
    (fun (s : Span.span) ->
      Hashtbl.replace per_root s.parent
        (Span.duration s +. Option.value ~default:0. (Hashtbl.find_opt per_root s.parent)))
    (Span.named "oasis.engine" spans);
  let engine = Array.make n infinity in
  List.iter
    (fun (r : Span.span) ->
      engine.(r.request) <-
        Float.min engine.(r.request) (Option.value ~default:0. (Hashtbl.find_opt per_root r.id)))
    (Span.named "request" spans);
  let engine_s = Array.to_list engine in
  let engine_first_hit =
    Array.to_list
      (Array.mapi
         (fun r a -> let t = Atomic.get a in if Float.is_finite t then t else engine.(r))
         first_hit)
  in
  (* Coverage of the blocking paths: per request, over all requests
     together, and of the fastest step-by-step CLI process. *)
  let covered = Span.covered ~root:"request" spans in
  let coverage = List.map (fun (root, c) -> c /. Span.duration root) covered in
  let coverage_min = List.fold_left Float.min infinity coverage in
  let path_coverage =
    sum (List.map snd covered) /. sum (List.map (fun (root, _) -> Span.duration root) covered)
  in
  let cli_coverage = fastest_steps.covered /. fastest_steps.steps_wall in
  let c = work.counters in
  let nq = float_of_int (List.length queries) in
  let overhead = (traced_s /. untraced_s) -. 1. in
  Printf.printf
    "# requests took %.3fs traced vs %.3fs untraced, fastest of 2 passes each (overhead \
     %+.1f%%); %d spans\n"
    traced_s untraced_s (100. *. overhead) (List.length spans);
  Printf.printf
    "# layer self times cover %.1f%% of all request time; per request %.1f%%..%.1f%% \
     (median %.1f%%); %.1f%% of the step-by-step CLI process\n"
    (100. *. path_coverage) (100. *. coverage_min)
    (100. *. List.fold_left Float.max neg_infinity coverage)
    (100. *. Stats.median coverage) (100. *. cli_coverage);
  Printf.printf "# step-by-step CLI %.3fs vs the real CLI %.3fs (%.1f%%), fastest of %d each\n"
    fastest_steps.steps_wall cli_wall
    (100. *. fastest_steps.steps_wall /. cli_wall)
    cli_rounds;
  let failed =
    serve_failed + failures Fun.id decoded + cli_failed
    + List.fold_left (fun a p -> a + p.errors) 0 launches
  in
  let covered_enough = path_coverage >= min_coverage && cli_coverage >= min_coverage in
  if not covered_enough then
    prerr_endline
      (Printf.sprintf
         "perfbench: layer self times cover %.1f%% of request time and %.1f%% of the \
          step-by-step CLI run; both must be at least %.0f%%"
         (100. *. path_coverage) (100. *. cli_coverage) (100. *. min_coverage));
  ( failed = 0 && covered_enough,
    (6 * n) + (2 * cli_rounds * List.length queries),
    failed,
    [
      m "bioseq.fasta_read_s" "s" (first "bioseq.fasta_read");
      m "suffix_tree.build_s" "s" (first "suffix_tree.build");
      m "storage.index_build_s" "s" (Span.duration (List.hd (Span.named "storage.index_build" spans)));
      m "storage.pool_hit_ratio" "ratio"
        (float_of_int pool_work.counters.io_hits
        /. float_of_int (pool_work.counters.io_hits + pool_work.counters.io_misses));
      m "storage.pool_misses_per_query" "count" (float_of_int pool_work.counters.io_misses /. nq);
      m "scoring.pssm_build_us_p50" "us" (us (Stats.median (durations "scoring.pssm_build" spans)));
      m "oasis.engine_ms_p50" "ms" (ms (Stats.percentile_exn 50. engine_s));
      m "oasis.engine_ms_p90" "ms" (ms (Stats.percentile_exn 90. engine_s));
      m "oasis.engine_first_hit_ms_p50" "ms" (ms (Stats.median engine_first_hit));
      m "oasis.columns_per_query" "count" (float_of_int c.columns /. nq);
      m "oasis.nodes_expanded_per_query" "count" (float_of_int c.nodes_expanded /. nq);
      m "oasis.expansion_yield" "ratio" (float_of_int work.hits /. float_of_int c.nodes_expanded);
      m "oasis.prune_ratio" "ratio"
        (float_of_int c.nodes_pruned /. float_of_int (c.nodes_pruned + c.nodes_enqueued));
      m "oasis.minor_words_per_column" "words" (c.minor_words /. float_of_int c.columns);
      m "oasis.arena_peak_bytes" "bytes" (float_of_int work.arena_peak);
      m "serve.request_decode_us_p50" "us" (us (Stats.median (durations "serve.request_decode" spans)));
      m "serve.hit_encode_us_per_hit" "us"
        (us (sum (durations "serve.hit_encode" spans)) /. float_of_int (max 1 hits_sent));
      m "serve.first_hit_p50_ms" "ms" (ms (Stats.median (fastest (fun r -> r.first_hit) untraced)));
      m "serve.outside_engine_ms_p50" "ms"
        (ms
           (Stats.median
              (fastest (fun r -> r.latency -. (float_of_int r.server_wall_us /. 1e6)) untraced)));
      m "serve.in_flight_peak" "count" (float_of_int in_flight_peak);
      m "batch.run_s" "s" fastest_steps.batch_s;
      m "batch.sweep_sharing" "ratio" fastest_steps.sharing;
      m "trace.overhead_ratio" "ratio" overhead;
      m "trace.path_coverage" "ratio" path_coverage;
      m "trace.path_coverage_min" "ratio" coverage_min;
      m "trace.cli_path_coverage" "ratio" cli_coverage;
    ] )

(* One step-by-step CLI run in this process, for [traced]: its spans,
   printed lines and sweep sharing go to [out]. *)
let cli_steps out =
  let tr = Span.create () in
  let lines, sharing = cli_path tr in
  Out_channel.with_open_bin out (fun oc -> Marshal.to_channel oc (Span.spans tr, lines, sharing) [])

(* --- calibration: fixed CPU work, for reading host speed drift --- *)

let calibrate () =
  let t0 = now () in
  let x = ref 1 in
  for _ = 1 to 200_000_000 do
    x := (!x * 1103515245) + 12345
  done;
  let dt = now () -. t0 in
  Printf.printf "{\"calibration_s\": %.6f, \"check\": %d}\n" dt (!x land 1)

(* --- entry point --- *)

let usage =
  "perfbench.exe --workload (serve_topk|cli_batch) --seed N \
   --seconds S --trace 0|1 [--oasis EXE] [--work DIR] | --calibrate \
   | --cli-steps OUT [--work DIR]"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref 0 in
  let calib = ref false and steps = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 timed or traced run");
      ("--oasis", Arg.Set_string Proc.oasis, "EXE the oasis executable");
      ("--work", Arg.Set_string work, "DIR scratch directory for inputs and sockets");
      ("--calibrate", Arg.Set calib, " time the fixed CPU calibration loop");
      ("--cli-steps", Arg.Set_string steps, "OUT one step-by-step CLI run (traced runs use it)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !calib then calibrate ()
  else if !steps <> "" then cli_steps !steps
  else begin
    let w =
      match List.assoc_opt !workload workloads with
      | Some w -> w
      | None -> prerr_endline usage; exit 2
    in
    if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline usage;
      exit 2
    end;
    at_exit (fun () ->
        List.iter
          (fun (d : Proc.daemon) ->
            (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
            try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ())
          !live);
    match
      if not (Sys.file_exists !Proc.oasis) then failwith (!Proc.oasis ^ " not found");
      check_load_shape ();
      if not (Sys.file_exists !work) then Sys.mkdir !work 0o755;
      let inp = Gen.make ~seed:!seed () in
      write_inputs w inp;
      match (!trace, w) with
      | 1, _ -> traced ~name:!workload w inp
      | _, Serve_topk -> serve_timed ~seconds:!seconds inp
      | _, Cli_batch -> batch_timed ~seconds:!seconds inp
    with
    | correct, attempted, failed, metrics -> print_result ~correct ~attempted ~failed metrics
    | exception e ->
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 1
  end
