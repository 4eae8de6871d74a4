(* The serving layer: wire-protocol round-trips and damage handling,
   the engine Session reentrancy contract, and an in-process daemon
   exercised over a real Unix-domain socket — concurrent clients,
   overload rejects, mid-stream disconnects, shutdown. *)

let alpha = Bioseq.Alphabet.dna
let unit_matrix = Scoring.Matrices.dna_unit

let db_of_strings strings =
  Bioseq.Database.make
    (List.mapi
       (fun i s ->
         Bioseq.Sequence.make ~alphabet:alpha ~id:(Printf.sprintf "s%d" i) s)
       strings)

let seq s = Bioseq.Sequence.make ~alphabet:alpha ~id:"q" s

(* ---------- protocol: round-trips ---------- *)

let gen_gap =
  QCheck.Gen.(
    oneof
      [
        map (fun p -> Serve.Protocol.Linear { penalty = p }) (int_bound 50);
        map2
          (fun o e -> Serve.Protocol.Affine { open_cost = o; extend_cost = e })
          (int_bound 50) (int_bound 50);
      ])

let gen_search =
  QCheck.Gen.(
    let opt_int = opt (int_bound 1_000_000) in
    let* query = string_size ~gen:printable (int_range 0 200) in
    let* matrix = string_size ~gen:printable (int_range 0 20) in
    let* gap = gen_gap in
    let* min_score = int_bound 1000 in
    let* max_hits = opt_int in
    let* max_columns = opt_int in
    let* max_expanded = opt_int in
    let* time_limit = opt (map (fun i -> float_of_int i /. 7.) (int_bound 1000)) in
    let* seed_cutoff = bool in
    return
      {
        Serve.Protocol.query;
        matrix;
        gap;
        min_score;
        max_hits;
        max_columns;
        max_expanded;
        time_limit;
        seed_cutoff;
      })

let gen_request =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun s -> Serve.Protocol.Search s) gen_search);
        (1, return Serve.Protocol.Stats);
        (1, return Serve.Protocol.Ping);
        (1, map (fun ms -> Serve.Protocol.Sleep ms) (int_bound 10_000));
        (1, return Serve.Protocol.Shutdown);
      ])

let gen_response =
  QCheck.Gen.(
    let str = string_size ~gen:printable (int_range 0 60) in
    frequency
      [
        ( 4,
          let* seq_index = int_bound 1_000_000 in
          let* score = int_range (-100) 10_000 in
          let* query_stop = int_bound 10_000 in
          let* target_stop = int_bound 10_000 in
          let* seq_id = str in
          return
            (Serve.Protocol.Hit
               { seq_index; score; query_stop; target_stop; seq_id }) );
        ( 2,
          let* outcome =
            oneof
              [
                return Serve.Protocol.Complete;
                map
                  (fun b -> Serve.Protocol.Exhausted { remaining_bound = b })
                  (int_range (-10) 10_000);
              ]
          in
          let* hits = int_bound 100_000 in
          let* wall_us = int_bound 100_000_000 in
          return (Serve.Protocol.Done { outcome; hits; wall_us }) );
        ( 2,
          let* r =
            oneof
              [
                map2
                  (fun i c ->
                    Serve.Protocol.Overloaded { in_flight = i; capacity = c })
                  (int_bound 100) (int_bound 100);
                map (fun m -> Serve.Protocol.Bad_request m) str;
                return Serve.Protocol.Shutting_down;
                map (fun m -> Serve.Protocol.Server_error m) str;
              ]
          in
          return (Serve.Protocol.Reject r) );
        ( 1,
          map
            (fun kvs -> Serve.Protocol.Stats_reply kvs)
            (list_size (int_bound 20) (pair str (int_bound 1_000_000))) );
        (1, return Serve.Protocol.Pong);
      ])

(* Feed the decoder one byte per read call: frame reading must not
   assume a frame arrives in whole reads (sockets fragment). *)
let dribble_reader s : Serve.Protocol.reader =
  let inner = Serve.Protocol.reader_of_string s in
  fun buf off len -> inner buf off (min 1 len)

let qcheck_request_roundtrip =
  QCheck.Test.make ~count:500 ~name:"request frames round-trip (byte dribble)"
    (QCheck.make gen_request) (fun req ->
      let s = Serve.Protocol.encode_request req in
      match Serve.Protocol.read_request (dribble_reader s) with
      | Ok req' -> req' = req
      | Error e ->
        QCheck.Test.fail_reportf "decode failed: %s"
          (Serve.Protocol.error_to_string e))

let qcheck_response_roundtrip =
  QCheck.Test.make ~count:500 ~name:"response frames round-trip"
    (QCheck.make gen_response) (fun resp ->
      let s = Serve.Protocol.encode_response resp in
      match Serve.Protocol.read_response (Serve.Protocol.reader_of_string s) with
      | Ok resp' -> resp' = resp
      | Error e ->
        QCheck.Test.fail_reportf "decode failed: %s"
          (Serve.Protocol.error_to_string e))

(* ---------- protocol: torn and damaged frames ---------- *)

let sample_search =
  {
    Serve.Protocol.query = "ACGTACGTAC";
    matrix = "dna-unit";
    gap = Serve.Protocol.Linear { penalty = 3 };
    min_score = 5;
    max_hits = Some 10;
    max_columns = None;
    max_expanded = Some 4096;
    time_limit = Some 1.5;
    seed_cutoff = true;
  }

(* A Search frame from a writer predating the seed_cutoff trailing
   byte must still decode (as [seed_cutoff = false]): strip the last
   payload byte and re-seal the header. *)
let test_wire_search_v1_compat () =
  let frame =
    Serve.Protocol.encode_request (Serve.Protocol.Search sample_search)
  in
  let n = String.length frame in
  let payload = String.sub frame 10 (n - 10 - 1) in
  let b = Buffer.create n in
  Buffer.add_string b (String.sub frame 0 2);
  Buffer.add_int32_be b (Int32.of_int (String.length payload));
  Buffer.add_int32_be b (Int32.of_int (Storage.Crc32.string payload));
  Buffer.add_string b payload;
  match
    Serve.Protocol.read_request
      (Serve.Protocol.reader_of_string (Buffer.contents b))
  with
  | Ok (Serve.Protocol.Search s) ->
    Alcotest.(check bool) "seed_cutoff defaults to false" false s.seed_cutoff;
    Alcotest.(check bool) "other fields survive" true
      (s = { sample_search with seed_cutoff = false })
  | Ok _ -> Alcotest.fail "decoded as a different request"
  | Error e -> Alcotest.failf "v1 frame rejected: %s" (Serve.Protocol.error_to_string e)

let test_truncation_every_boundary () =
  let frame = Serve.Protocol.encode_request (Serve.Protocol.Search sample_search) in
  let n = String.length frame in
  for cut = 0 to n - 1 do
    let r =
      Serve.Protocol.read_request
        (Serve.Protocol.reader_of_string (String.sub frame 0 cut))
    in
    let expected = if cut = 0 then Serve.Protocol.Closed else Serve.Protocol.Truncated in
    match r with
    | Error e when e = expected -> ()
    | Error e ->
      Alcotest.failf "cut at %d/%d: got %s" cut n
        (Serve.Protocol.error_to_string e)
    | Ok _ -> Alcotest.failf "cut at %d/%d decoded successfully" cut n
  done;
  (* And the uncut frame still parses. *)
  match Serve.Protocol.read_request (Serve.Protocol.reader_of_string frame) with
  | Ok (Serve.Protocol.Search s) ->
    Alcotest.(check bool) "intact frame" true (s = sample_search)
  | _ -> Alcotest.fail "intact frame failed to parse"

(* Read a frame through a byte stream stored on a fault-injected
   device: whatever the faults do, decoding must return a typed error
   (or, when nothing fired, the original value) — never raise, never
   misparse. *)
let device_reader dev : Serve.Protocol.reader =
  let pos = ref 0 in
  let len = Storage.Device.length dev in
  fun buf off want ->
    let n = min want (len - !pos) in
    if n <= 0 then 0
    else begin
      let chunk = Bytes.create n in
      Storage.Device.pread dev ~off:!pos ~buf:chunk;
      Bytes.blit chunk 0 buf off n;
      pos := !pos + n;
      n
    end

let test_bit_flipped_frames () =
  let frame = Serve.Protocol.encode_request (Serve.Protocol.Search sample_search) in
  for fseed = 1 to 60 do
    let dev = Storage.Device.in_memory () in
    Storage.Device.append dev (Bytes.of_string frame);
    let plan = Storage.Faulty.plan ~seed:fseed ~bit_flip_prob:1.0 () in
    let faulty, handle = Storage.Faulty.wrap plan dev in
    (match Serve.Protocol.read_request (device_reader faulty) with
    | Error _ -> ()
    | Ok req ->
      (* A flip in each read of a non-empty-payload frame cannot leave
         both the payload and its stored CRC consistent. *)
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: flipped frame misparsed" fseed)
        true
        (req = Serve.Protocol.Search sample_search));
    let stats = Storage.Faulty.stats handle in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: faults actually fired" fseed)
      true
      (stats.Storage.Faulty.bit_flips > 0)
  done

let test_torn_append_frames () =
  (* A frame whose tail a crash tore off reads back as Truncated. *)
  let frame = Serve.Protocol.encode_request (Serve.Protocol.Search sample_search) in
  let torn = ref 0 in
  for fseed = 1 to 40 do
    let dev = Storage.Device.in_memory () in
    let plan = Storage.Faulty.plan ~seed:fseed ~torn_append_prob:1.0 () in
    let faulty, handle = Storage.Faulty.wrap plan dev in
    Storage.Faulty.(ignore (stats handle));
    Storage.Device.append faulty (Bytes.of_string frame);
    if (Storage.Faulty.stats handle).Storage.Faulty.torn_appends > 0 then begin
      incr torn;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: device shorter" fseed)
        true
        (Storage.Device.length dev < String.length frame);
      match Serve.Protocol.read_request (device_reader dev) with
      | Error (Serve.Protocol.Truncated | Serve.Protocol.Closed) -> ()
      | Error e ->
        Alcotest.failf "seed %d: torn frame gave %s" fseed
          (Serve.Protocol.error_to_string e)
      | Ok _ -> Alcotest.failf "seed %d: torn frame decoded" fseed
    end
  done;
  Alcotest.(check bool) "some appends tore" true (!torn > 0)

(* ---------- engine sessions: reentrancy ---------- *)

let strings_for_sessions =
  [
    "ACGTACGTACGTTTAGCCGATT";
    "TTTTACGTACGAACCGGTTACG";
    "GGGCCCAAATTTACGTAGCATC";
    "ACACACACGTGTGTGTACGTAA";
    "CGATCGATCGTACGTACGATCG";
    "TTAGGACCATTACGGATACGTT";
  ]

let stream_of_engine next engine =
  let rec go acc =
    match next engine with
    | Some h ->
      go
        ((h.Oasis.Hit.seq_index, h.Oasis.Hit.score, h.Oasis.Hit.query_stop,
          h.Oasis.Hit.target_stop)
        :: acc)
    | None -> List.rev acc
  in
  go []

let hit_stream = Alcotest.(list (pair (pair int int) (pair int int)))

let pack = List.map (fun (a, b, c, d) -> ((a, b), (c, d)))

let cfg ?(affine = false) min_score =
  let gap =
    if affine then Scoring.Gap.affine ~open_cost:4 ~extend_cost:1
    else Scoring.Gap.linear 2
  in
  Oasis.Engine.config ~matrix:unit_matrix ~gap ~min_score ()

let test_session_reuse_mem () =
  let db = db_of_strings strings_for_sessions in
  let tree = Suffix_tree.Ukkonen.build db in
  let q1 = seq "ACGTACGT" and q2 = seq "TTTACGGATAC" in
  (* Reference streams from fresh engines; affine config changes the
     column width, so reuse also exercises Col_pool.reset's re-slot. *)
  let fresh query c =
    pack
      (stream_of_engine Oasis.Engine.Mem.next
         (Oasis.Engine.Mem.create ~source:tree ~db ~query c))
  in
  let session = Oasis.Engine.Mem.Session.create () in
  let with_session query c =
    pack
      (stream_of_engine Oasis.Engine.Mem.next
         (Oasis.Engine.Mem.create ~session ~source:tree ~db ~query c))
  in
  let plan =
    [ (q1, cfg 4); (q2, cfg ~affine:true 4); (q1, cfg 4); (q2, cfg 2) ]
  in
  List.iteri
    (fun i (q, c) ->
      Alcotest.check hit_stream
        (Printf.sprintf "reused session run %d = fresh engine" i)
        (fresh q c) (with_session q c))
    plan

let test_session_reuse_disk () =
  let db = db_of_strings strings_for_sessions in
  let tree = Suffix_tree.Ukkonen.build db in
  let dt, _pool = Storage.Disk_tree.of_tree ~block_size:64 ~capacity:16 tree in
  let q = seq "ACGTACGTTT" in
  let fresh c =
    pack
      (stream_of_engine Oasis.Engine.Disk.next
         (Oasis.Engine.Disk.create ~source:dt ~db ~query:q c))
  in
  let session = Oasis.Engine.Disk.Session.create () in
  List.iteri
    (fun i c ->
      let got =
        pack
          (stream_of_engine Oasis.Engine.Disk.next
             (Oasis.Engine.Disk.create ~session ~source:dt ~db ~query:q c))
      in
      Alcotest.check hit_stream
        (Printf.sprintf "disk session run %d = fresh" i)
        (fresh c) got)
    [ cfg 4; cfg ~affine:true 4; cfg 2 ]

(* Two sessions over ONE tree image, their searches interleaved call by
   call, must each produce the stream a solo run produces — the
   daemon's concurrency model in miniature. *)
let interleave_property db_strings qa qb pattern =
  let db = db_of_strings db_strings in
  let tree = Suffix_tree.Ukkonen.build db in
  let qa = seq qa and qb = seq qb in
  let c = cfg 3 in
  let solo query =
    pack
      (stream_of_engine Oasis.Engine.Mem.next
         (Oasis.Engine.Mem.create ~source:tree ~db ~query c))
  in
  let sa = Oasis.Engine.Mem.Session.create ()
  and sb = Oasis.Engine.Mem.Session.create () in
  let ea = Oasis.Engine.Mem.create ~session:sa ~source:tree ~db ~query:qa c
  and eb = Oasis.Engine.Mem.create ~session:sb ~source:tree ~db ~query:qb c in
  let ha = ref [] and hb = ref [] in
  let da = ref false and db' = ref false in
  let step engine acc done_ =
    if not !done_ then
      match Oasis.Engine.Mem.next engine with
      | Some h ->
        acc :=
          (h.Oasis.Hit.seq_index, h.Oasis.Hit.score, h.Oasis.Hit.query_stop,
           h.Oasis.Hit.target_stop)
          :: !acc
      | None -> done_ := true
  in
  let i = ref 0 in
  while not (!da && !db') do
    let pick_a =
      if !da then false
      else if !db' then true
      else List.nth pattern (!i mod List.length pattern)
    in
    if pick_a then step ea ha da else step eb hb db';
    incr i
  done;
  pack (List.rev !ha) = solo qa && pack (List.rev !hb) = solo qb

let test_interleaved_sessions () =
  Alcotest.(check bool)
    "alternating interleave matches solo runs" true
    (interleave_property strings_for_sessions "ACGTACGT" "TTTACGGATAC"
       [ true; false ])

let qcheck_interleaved_sessions =
  let gen =
    QCheck.Gen.(
      let dna n = string_size ~gen:(oneofl [ 'A'; 'C'; 'G'; 'T' ]) n in
      let* strings = list_size (int_range 2 8) (dna (int_range 8 40)) in
      let* qa = dna (int_range 3 12) in
      let* qb = dna (int_range 3 12) in
      let* pattern = list_size (int_range 1 6) bool in
      return (strings, qa, qb, pattern))
  in
  QCheck.Test.make ~count:60
    ~name:"interleaved sessions on one tree = sequential streams"
    (QCheck.make gen) (fun (strings, qa, qb, pattern) ->
      let pattern = if List.for_all not pattern then [ true ] else pattern in
      interleave_property strings qa qb pattern)

(* ---------- the daemon, in process ---------- *)

let sock_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "oasis-test-%d-%s.sock" (Unix.getpid ()) name)

let daemon_db_strings =
  List.init 24 (fun i ->
      (* Deterministic, repetitive enough to align against. *)
      let pat = [| "ACGTAC"; "GTTAGC"; "CGATTA"; "TTACGG" |] in
      String.concat ""
        (List.init 6 (fun j -> pat.((i + (3 * j)) mod 4)))
      ^ "ACGTACGT")

let daemon_query = "ACGTACGTTAGC"

let wire_search ?max_hits ?max_columns ?(seed_cutoff = false)
    ?(min_score = 6) () =
  {
    Serve.Protocol.query = daemon_query;
    matrix = Scoring.Submat.name unit_matrix;
    gap = Serve.Protocol.Linear { penalty = 2 };
    min_score;
    max_hits;
    max_columns;
    max_expanded = None;
    time_limit = None;
    seed_cutoff;
  }

(* The oracle's stream ({!Oasis.Reference} over the pointer tree), in
   wire shape. *)
let reference_stream db tree ~min_score =
  let query = seq daemon_query in
  let config =
    Oasis.Engine.config ~matrix:unit_matrix ~gap:(Scoring.Gap.linear 2)
      ~min_score ()
  in
  let engine = Oasis.Reference.Mem.create ~source:tree ~db ~query config in
  List.map
    (fun (i, s, qs, ts) ->
      (i, s, qs, ts, Bioseq.Sequence.id (Bioseq.Database.seq db i)))
    (stream_of_engine Oasis.Reference.Mem.next engine)

let collect_search ?stop_after ~path req =
  let hits = ref [] in
  let result =
    Serve.Client.search ?stop_after ~path
      ~on_hit:(fun _ (h : Serve.Protocol.hit) ->
        hits :=
          (h.seq_index, h.score, h.query_stop, h.target_stop, h.seq_id)
          :: !hits)
      req
  in
  (List.rev !hits, result)

let wait_for_daemon path =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    match Serve.Client.request ~path Serve.Protocol.Ping with
    | Ok Serve.Protocol.Pong -> ()
    | _ | (exception Unix.Unix_error _) ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "daemon did not come up within 10s"
      else begin
        Unix.sleepf 0.05;
        go ()
      end
  in
  go ()

(* The daemon serves what [oasis serve --db] builds: one
   [Packed.build] image shared by every worker ([~adapter:true] instead
   runs the [Backend.mem ~tree] adapter). [tree] is the pointer tree
   the oracle reads. *)
let with_daemon ~name ~workers ~queue_depth ?(allow_sleep = false)
    ?(adapter = false) f =
  let db = db_of_strings daemon_db_strings in
  let tree = Suffix_tree.Ukkonen.build db in
  let make_worker =
    if adapter then fun _ -> Serve.Backend.mem ~tree ~db ()
    else
      let image = Suffix_tree.Packed.build db in
      fun _ -> Serve.Backend.packed ~image ~db ()
  in
  let path = sock_path name in
  let cfg =
    Serve.Server.config ~workers ~queue_depth ~allow_sleep ~alphabet:alpha
      ~socket_path:path ()
  in
  let server = Serve.Server.create cfg ~make_worker in
  let d = Domain.spawn (fun () -> Serve.Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Domain.join d;
      Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path))
    (fun () ->
      wait_for_daemon path;
      f ~path ~db ~tree)

let wire_hits = Alcotest.(list (pair (pair int int) (pair int string)))
let pack_wire = List.map (fun (a, b, c, _d, e) -> ((a, b), (c, e)))

let test_daemon_streams_and_budget ?adapter name () =
  with_daemon ~name ~workers:2 ~queue_depth:4 ?adapter
    (fun ~path ~db ~tree ->
      let reference = reference_stream db tree ~min_score:6 in
      (* Sequential client: bit-identical to the oracle. *)
      let hits, result = collect_search ~path (wire_search ()) in
      (match result with
      | Serve.Client.Finished { outcome = Serve.Protocol.Complete; hits = n; _ }
        ->
        Alcotest.(check int) "hit count" (List.length reference) n
      | _ -> Alcotest.fail "expected a Complete finish");
      Alcotest.check wire_hits "daemon stream = reference stream"
        (pack_wire reference) (pack_wire hits);
      (* Budget-capped: stream is a prefix; exhaustion is typed. *)
      let bhits, bresult =
        collect_search ~path (wire_search ~max_columns:16 ())
      in
      let is_prefix =
        List.length bhits <= List.length reference
        && List.for_all2
             (fun a b -> a = b)
             bhits
             (List.filteri (fun i _ -> i < List.length bhits) reference)
      in
      Alcotest.(check bool) "budget stream is a prefix" true is_prefix;
      (match bresult with
      | Serve.Client.Finished { outcome; hits = n; _ } ->
        Alcotest.(check int) "budget hit count" (List.length bhits) n;
        if List.length bhits < List.length reference then
          Alcotest.(check bool)
            "short stream must be Exhausted" true
            (match outcome with
            | Serve.Protocol.Exhausted _ -> true
            | Serve.Protocol.Complete -> false)
      | _ -> Alcotest.fail "expected a finish");
      (* max_hits cap truncates the stream without an engine budget. *)
      let chits, cresult = collect_search ~path (wire_search ~max_hits:2 ()) in
      Alcotest.(check int) "max_hits cap" (min 2 (List.length reference))
        (List.length chits);
      match cresult with
      | Serve.Client.Finished _ -> ()
      | _ -> Alcotest.fail "expected a finish under max_hits")

(* --seed-cutoff over the wire: a capped seeded stream must equal the
   capped unseeded one (seeding is monotone-safe), and an uncapped
   seeded request is a typed Bad_request, not a wrong stream. *)
let test_daemon_seed_cutoff () =
  with_daemon ~name:"seed" ~workers:1 ~queue_depth:2
    (fun ~path ~db ~tree ->
      let plain, _ = collect_search ~path (wire_search ~max_hits:3 ()) in
      Alcotest.check wire_hits "capped stream = reference prefix"
        (pack_wire
           (List.filteri (fun i _ -> i < 3)
              (reference_stream db tree ~min_score:6)))
        (pack_wire plain);
      let seeded, result =
        collect_search ~path (wire_search ~max_hits:3 ~seed_cutoff:true ())
      in
      (match result with
      | Serve.Client.Finished _ -> ()
      | _ -> Alcotest.fail "seeded search did not finish");
      Alcotest.check wire_hits "seeded stream = unseeded stream"
        (pack_wire plain) (pack_wire seeded);
      match
        collect_search ~path (wire_search ~seed_cutoff:true ())
      with
      | _, Serve.Client.Rejected (Serve.Protocol.Bad_request _) -> ()
      | _ -> Alcotest.fail "uncapped seed_cutoff must be a Bad_request")

let test_daemon_concurrent_clients () =
  with_daemon ~name:"conc" ~workers:2 ~queue_depth:8 (fun ~path ~db ~tree ->
      let reference = pack_wire (reference_stream db tree ~min_score:6) in
      let clients =
        List.init 4 (fun _ ->
            Domain.spawn (fun () -> collect_search ~path (wire_search ())))
      in
      List.iteri
        (fun i d ->
          let hits, result = Domain.join d in
          (match result with
          | Serve.Client.Finished { outcome = Serve.Protocol.Complete; _ } -> ()
          | _ -> Alcotest.failf "client %d did not finish Complete" i);
          Alcotest.check wire_hits
            (Printf.sprintf "client %d stream = reference stream" i)
            reference (pack_wire hits))
        clients)

let test_daemon_disconnect_and_stats () =
  with_daemon ~name:"disc" ~workers:2 ~queue_depth:4 (fun ~path ~db ~tree ->
      let reference = reference_stream db tree ~min_score:6 in
      Alcotest.(check bool) "reference has >= 2 hits" true
        (List.length reference >= 2);
      (* Cut the stream after one hit; the daemon must survive. *)
      let hits, result =
        collect_search ~stop_after:1 ~path (wire_search ())
      in
      (match result with
      | Serve.Client.Cut 1 -> ()
      | _ -> Alcotest.fail "expected Cut 1");
      Alcotest.check wire_hits "the one hit is the best one"
        (pack_wire [ List.hd reference ])
        (pack_wire hits);
      (* Daemon still serves complete streams afterwards. *)
      let hits2, _ = collect_search ~path (wire_search ()) in
      Alcotest.check wire_hits "post-disconnect stream intact"
        (pack_wire reference) (pack_wire hits2);
      (* Bad request: typed reject, not a dead daemon. *)
      (match
         collect_search ~path
           { (wire_search ()) with Serve.Protocol.matrix = "no-such-matrix" }
       with
      | _, Serve.Client.Rejected (Serve.Protocol.Bad_request _) -> ()
      | _ -> Alcotest.fail "expected Bad_request reject");
      (* The deterministic disconnect: hang up before sending any
         request, so the server's request read sees the close. (A
         mid-stream hang-up races with writes the socket buffer already
         absorbed, so it may look like a completion on tiny streams.) *)
      Serve.Client.close (Serve.Client.connect path);
      (* SLO stats: the verb answers with the counters we just drove;
         the hung-up connection's task runs asynchronously, so poll. *)
      let get_stats () =
        match Serve.Client.request ~path Serve.Protocol.Stats with
        | Ok (Serve.Protocol.Stats_reply items) ->
          fun k ->
            (try List.assoc k items
             with Not_found -> Alcotest.failf "stats key %s missing" k)
        | _ -> Alcotest.fail "stats verb failed"
      in
      let deadline = Unix.gettimeofday () +. 5. in
      let rec settled () =
        let get = get_stats () in
        if get "serve.disconnects" >= 1 then get
        else if Unix.gettimeofday () > deadline then get
        else begin
          Unix.sleepf 0.05;
          settled ()
        end
      in
      let get = settled () in
      Alcotest.(check bool) "disconnects counted" true
        (get "serve.disconnects" >= 1);
      Alcotest.(check bool) "bad request counted" true
        (get "serve.bad_request" >= 1);
      Alcotest.(check bool) "completions counted" true
        (get "serve.completed" >= 2);
      Alcotest.(check bool) "hits streamed" true
        (get "serve.hits_streamed" >= List.length reference);
      Alcotest.(check bool) "p50 <= p99" true
        (get "serve.latency_us_p50" <= get "serve.latency_us_p99"))

let test_daemon_overload_reject () =
  with_daemon ~name:"over" ~workers:1 ~queue_depth:0 ~allow_sleep:true
    (fun ~path ~db:_ ~tree:_ ->
      (* Saturate the single worker, then demand an immediate typed
         refusal — not a hang — for the next connection. *)
      let deadline = Unix.gettimeofday () +. 8. in
      (* The pokes below race the sleeper's connect: a Ping in flight
         when the sleeper arrives fills the one slot, so the sleeper
         retries an Overloaded reject until it is admitted. *)
      let rec sleep () =
        match Serve.Client.request ~path (Serve.Protocol.Sleep 2000) with
        | Ok (Serve.Protocol.Reject (Serve.Protocol.Overloaded _))
          when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.01;
          sleep ()
        | r -> r
      in
      let sleeper = Domain.spawn sleep in
      let rec poke () =
        match Serve.Client.request ~path Serve.Protocol.Ping with
        | Ok (Serve.Protocol.Reject (Serve.Protocol.Overloaded { in_flight; capacity }))
          ->
          Alcotest.(check int) "capacity" 1 capacity;
          Alcotest.(check bool) "in_flight at capacity" true (in_flight >= 1)
        | _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.05;
          poke ()
        | _ -> Alcotest.fail "never saw a typed Overloaded reject"
      in
      poke ();
      (match Domain.join sleeper with
      | Ok Serve.Protocol.Pong -> ()
      | _ -> Alcotest.fail "sleeper did not complete");
      (* Capacity freed: requests are admitted again. *)
      match Serve.Client.request ~path Serve.Protocol.Ping with
      | Ok Serve.Protocol.Pong -> ()
      | _ -> Alcotest.fail "daemon did not recover after overload")

(* With capacity 1, a client that sends its next request as soon as it
   reads a reply must find the slot free every time: the admission
   slot goes back with the last frame, not after the close. *)
let test_daemon_back_to_back () =
  with_daemon ~name:"b2b" ~workers:1 ~queue_depth:0
    (fun ~path ~db:_ ~tree:_ ->
      for i = 1 to 300 do
        match Serve.Client.request ~path Serve.Protocol.Ping with
        | Ok Serve.Protocol.Pong -> ()
        | Ok (Serve.Protocol.Reject (Serve.Protocol.Overloaded _)) ->
          Alcotest.failf "request %d refused Overloaded by an idle daemon" i
        | _ -> Alcotest.failf "request %d failed" i
      done)

let test_daemon_shutdown_verb () =
  let db = db_of_strings daemon_db_strings in
  let image = Suffix_tree.Packed.build db in
  let path = sock_path "shut" in
  let cfg =
    Serve.Server.config ~workers:1 ~queue_depth:2 ~alphabet:alpha
      ~socket_path:path ()
  in
  let server =
    Serve.Server.create cfg ~make_worker:(fun _ ->
        Serve.Backend.packed ~image ~db ())
  in
  let d = Domain.spawn (fun () -> Serve.Server.run server) in
  wait_for_daemon path;
  (match Serve.Client.request ~path Serve.Protocol.Shutdown with
  | Ok Serve.Protocol.Pong -> ()
  | _ -> Alcotest.fail "shutdown verb failed");
  Domain.join d;
  Alcotest.(check bool) "socket unlinked after shutdown" false
    (Sys.file_exists path)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          QCheck_alcotest.to_alcotest qcheck_request_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_response_roundtrip;
          Alcotest.test_case "truncation at every byte boundary" `Quick
            test_truncation_every_boundary;
          Alcotest.test_case "pre-seed_cutoff Search frames decode" `Quick
            test_wire_search_v1_compat;
          Alcotest.test_case "bit-flipped frames fail typed" `Quick
            test_bit_flipped_frames;
          Alcotest.test_case "torn-append frames read as truncated" `Quick
            test_torn_append_frames;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "session reuse (mem) = fresh engines" `Quick
            test_session_reuse_mem;
          Alcotest.test_case "session reuse (disk) = fresh engines" `Quick
            test_session_reuse_disk;
          Alcotest.test_case "interleaved sessions = solo streams" `Quick
            test_interleaved_sessions;
          QCheck_alcotest.to_alcotest qcheck_interleaved_sessions;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "streams, budgets, hit caps" `Quick
            (test_daemon_streams_and_budget "basic");
          Alcotest.test_case "Backend.mem adapter: streams, budgets, hit caps"
            `Quick
            (test_daemon_streams_and_budget ~adapter:true "adapter");
          Alcotest.test_case "seed-cutoff: same stream, typed reject" `Quick
            test_daemon_seed_cutoff;
          Alcotest.test_case "4 concurrent clients, identical streams" `Quick
            test_daemon_concurrent_clients;
          Alcotest.test_case "mid-stream disconnect + SLO stats" `Quick
            test_daemon_disconnect_and_stats;
          Alcotest.test_case "typed overload reject" `Quick
            test_daemon_overload_reject;
          Alcotest.test_case "back-to-back requests at capacity 1" `Quick
            test_daemon_back_to_back;
          Alcotest.test_case "shutdown verb unlinks the socket" `Quick
            test_daemon_shutdown_verb;
        ] );
    ]
