(* The oasis command-line tool.

     oasis generate   synthesize a FASTA database (SWISS-PROT-like)
     oasis index      build the on-disk suffix tree for a FASTA file
     oasis search     run an OASIS local-alignment search
     oasis stats      database / index statistics

   See `oasis COMMAND --help`. *)

open Cmdliner

let alphabet_of_string = function
  | "protein" -> Ok Bioseq.Alphabet.protein
  | "dna" -> Ok Bioseq.Alphabet.dna
  | other -> Error (Printf.sprintf "unknown alphabet %S (protein|dna)" other)

let alphabet_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (alphabet_of_string s) in
  let print ppf a = Format.pp_print_string ppf (Bioseq.Alphabet.name a) in
  Arg.conv (parse, print)

let matrix_conv =
  let parse s =
    match Scoring.Matrices.by_name s with
    | Some m -> Ok m
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown matrix %S (available: %s)" s
              (String.concat ", "
                 (List.map Scoring.Submat.name Scoring.Matrices.all))))
  in
  let print ppf m = Format.pp_print_string ppf (Scoring.Submat.name m) in
  Arg.conv (parse, print)

let fasta_arg ~doc name =
  Arg.(required & opt (some file) None & info [ name ] ~docv:"FASTA" ~doc)

let opt_fasta_arg ~doc name =
  Arg.(value & opt (some file) None & info [ name ] ~docv:"FASTA" ~doc)

let alphabet_arg =
  Arg.(
    value
    & opt alphabet_conv Bioseq.Alphabet.protein
    & info [ "alphabet" ] ~docv:"ALPHABET" ~doc:"Sequence alphabet (protein|dna).")

(* --- generate --- *)

let generate_cmd =
  let run kind symbols seed out =
    let rng = Workload.Rng.create ~seed in
    let db =
      match kind with
      | "protein" -> Workload.Generate.protein_database rng ~target_symbols:symbols ()
      | "dna" -> Workload.Generate.dna_database rng ~target_symbols:symbols ()
      | other -> failwith (Printf.sprintf "unknown kind %S (protein|dna)" other)
    in
    let seqs =
      List.init (Bioseq.Database.num_sequences db) (Bioseq.Database.seq db)
    in
    Bioseq.Fasta.write_file out seqs;
    Printf.printf "wrote %d sequences (%d symbols) to %s\n"
      (Bioseq.Database.num_sequences db)
      (Bioseq.Database.total_symbols db)
      out
  in
  let kind =
    Arg.(value & opt string "protein" & info [ "kind" ] ~docv:"KIND"
           ~doc:"Database kind: protein (SWISS-PROT-like) or dna.")
  in
  let symbols =
    Arg.(value & opt int 100_000 & info [ "symbols" ] ~docv:"N"
           ~doc:"Total number of residues/nucleotides.")
  in
  let seed =
    Arg.(value & opt int 2003 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
  in
  let out =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output FASTA path.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Synthesize a random sequence database as FASTA.")
    Term.(const run $ kind $ symbols $ seed $ out)

(* --- index --- *)

let index_files dir =
  ( Filename.concat dir "symbols.dat",
    Filename.concat dir "internal.dat",
    Filename.concat dir "leaves.dat" )

let profile_filename = "qgram.prf"

let write_one_index ~layout ~external_build ~profile ~dir db =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let sym_p, int_p, leaf_p = index_files dir in
  let symbols = Storage.Device.file sym_p
  and internal = Storage.Device.file int_p
  and leaves = Storage.Device.file leaf_p in
  let prof = ref None in
  if external_build then
    Storage.External_build.write ~layout db ~symbols ~internal ~leaves
  else begin
    let tree = Suffix_tree.Ukkonen.build db in
    Storage.Disk_tree.write ~layout tree ~symbols ~internal ~leaves;
    if profile then begin
      let p = Quasar.Profile.build ~db ~tree () in
      Storage.Blob.save
        (Filename.concat dir profile_filename)
        (Quasar.Profile.to_bytes p);
      prof := Some p
    end
  end;
  let total =
    Storage.Device.length symbols + Storage.Device.length internal
    + Storage.Device.length leaves
  in
  List.iter Storage.Device.close [ symbols; internal; leaves ];
  (total, !prof)

let index_cmd =
  let run fasta alphabet dir clustered external_build shards profile =
    let seqs = Bioseq.Fasta.read_file ~alphabet fasta in
    let db = Bioseq.Database.make seqs in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let layout =
      if clustered then Storage.Disk_tree.Clustered
      else Storage.Disk_tree.Position_indexed
    in
    if external_build then
      Printf.printf
        "building index externally (one first-symbol partition at a time, \
         largest holds %d suffixes) over %d sequences (%d symbols)...\n%!"
        (Storage.External_build.max_partition_occurrences db)
        (Bioseq.Database.num_sequences db)
        (Bioseq.Database.total_symbols db)
    else
      Printf.printf "building suffix tree over %d sequences (%d symbols)...\n%!"
        (Bioseq.Database.num_sequences db)
        (Bioseq.Database.total_symbols db);
    if profile && external_build then
      failwith
        "--profile needs the in-memory tree; it is incompatible with \
         --external";
    let total =
      if shards <= 1 then begin
        let bytes, prof = write_one_index ~layout ~external_build ~profile ~dir db in
        (match prof with
        | Some p ->
          Printf.printf "q-gram profile: %d entries, %d bytes (q=%d)\n"
            (Quasar.Profile.num_nodes p) (Quasar.Profile.bytes p)
            (Quasar.Profile.q p)
        | None -> ());
        bytes
      end
      else begin
        let pieces = Oasis.Shard.plan ~shards db in
        let results =
          Array.mapi
            (fun i (piece : Oasis.Shard.piece) ->
              let sdir = Storage.Shard_manifest.shard_dir dir i in
              let bytes, prof =
                write_one_index ~layout ~external_build ~profile ~dir:sdir
                  piece.db
              in
              Printf.printf "  shard%d: %d sequences (%d symbols), %d bytes%s\n%!"
                i
                (Bioseq.Database.num_sequences piece.db)
                (Bioseq.Database.total_symbols piece.db)
                bytes
                (match prof with
                | Some p ->
                  Printf.sprintf " + %d-byte q-gram profile"
                    (Quasar.Profile.bytes p)
                | None -> "");
              (bytes, prof))
            pieces
        in
        Storage.Shard_manifest.save ~dir
          (Array.mapi
             (fun i (piece : Oasis.Shard.piece) ->
               {
                 Storage.Shard_manifest.first_seq = piece.first_seq;
                 num_seqs = Bioseq.Database.num_sequences piece.db;
                 symbols = Bioseq.Database.total_symbols piece.db;
                 grams =
                   (match snd results.(i) with
                   | Some p -> Quasar.Profile.root_grams p
                   | None -> Bytes.empty);
               })
             pieces);
        Printf.printf "manifest: %d shards%s\n" (Array.length pieces)
          (if profile then " (root gram bitsets embedded)" else "");
        Array.fold_left (fun acc (b, _) -> acc + b) 0 results
      end
    in
    Printf.printf "index written to %s: %d bytes (%.2f bytes/symbol)\n" dir total
      (float_of_int total /. float_of_int (Bioseq.Database.data_length db))
  in
  let dir =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"DIR"
           ~doc:"Output index directory.")
  in
  let clustered =
    Arg.(value & flag & info [ "clustered" ]
           ~doc:"Use the clustered leaf layout (better buffer-pool locality; \
                 see the paper's section 4.5).")
  in
  let external_build =
    Arg.(value & flag & info [ "external" ]
           ~doc:"Hunt-style partitioned construction (section 3.4.1): builds \
                 one first-symbol partition at a time, bounding peak tree \
                 memory by the largest partition.")
  in
  let shards =
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"K"
           ~doc:"Partition the database into K shards (cut at sequence \
                 boundaries, balanced by symbols) and build one index per \
                 shard under shard0/..shardK-1/ plus a manifest; \
                 $(b,oasis search --index) then runs the shards in parallel.")
  in
  let profile =
    Arg.(value & flag & info [ "profile" ]
           ~doc:"Also build the exactness-preserving q-gram profile \
                 (DESIGN.md section 2k) and store it as qgram.prf next to \
                 each index (embedding per-shard root gram bitsets in the \
                 manifest); $(b,oasis search --profile) then arms the \
                 filter tier without rebuilding it. Incompatible with \
                 --external (the profile walk needs the in-memory tree).")
  in
  Cmd.v
    (Cmd.info "index"
       ~doc:"Build the paper's three-component on-disk suffix tree for a FASTA \
             database.")
    Term.(
      const run $ fasta_arg ~doc:"Input FASTA database." "db" $ alphabet_arg
      $ dir $ clustered $ external_build $ shards $ profile)

(* --- append / compact: the live log-structured index --- *)

let live_open ~alphabet fs =
  let t, r = Storage.Live_index.open_ ~alphabet fs in
  (match r.Storage.Live_index.truncated with
  | Storage.Segment_log.Sealed -> ()
  | state ->
    Printf.printf "# recovery: cut a %s journal tail, %d records replayed\n%!"
      (Storage.Segment_log.state_name state)
      r.Storage.Live_index.replayed);
  t

let live_summary t =
  Printf.sprintf "catalog v%d: %d sealed segments, %d journaled in the tail"
    (Storage.Live_index.catalog_version t)
    (List.length (Storage.Live_index.segments t))
    (Storage.Live_index.tail_sequences t)

let live_index_arg =
  Arg.(required & opt (some string) None & info [ "o"; "index" ] ~docv:"DIR"
         ~doc:"Live index directory.")

let append_cmd =
  let run fasta alphabet dir =
    let seqs = Bioseq.Fasta.read_file ~alphabet fasta in
    if seqs = [] then failwith "no sequences in the FASTA";
    let fs = Storage.Vfs.dir dir in
    let t =
      if Storage.Live_index.exists fs then live_open ~alphabet fs
      else Storage.Live_index.create ~alphabet fs
    in
    Fun.protect
      ~finally:(fun () -> Storage.Live_index.close t)
      (fun () ->
        Storage.Live_index.append t seqs;
        Printf.printf "appended %d sequences; index holds %d (%s)\n"
          (List.length seqs)
          (Storage.Live_index.num_sequences t)
          (live_summary t))
  in
  Cmd.v
    (Cmd.info "append"
       ~doc:"Append FASTA sequences to a live log-structured index, creating \
             it on first use. Crash-safe: the batch is journaled and synced \
             before it is acknowledged, so after a crash the index recovers \
             to a searchable prefix of what was appended.")
    Term.(
      const run
      $ fasta_arg ~doc:"FASTA file with the sequences to append." "db"
      $ alphabet_arg $ live_index_arg)

let compact_cmd =
  let run alphabet dir full =
    let fs = Storage.Vfs.dir dir in
    if not (Storage.Live_index.exists fs) then
      failwith (Printf.sprintf "%s holds no live index" dir);
    let t = live_open ~alphabet fs in
    Fun.protect
      ~finally:(fun () -> Storage.Live_index.close t)
      (fun () ->
        let tail = Storage.Live_index.tail_sequences t in
        Storage.Live_index.compact ~full t;
        Printf.printf "sealed %d tail sequences; %s\n" tail (live_summary t))
  in
  let full =
    Arg.(value & flag & info [ "full" ]
           ~doc:"Also fold the existing sealed segments in, leaving a single \
                 segment.")
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:"Seal a live index's journaled tail into an immutable segment \
             (the paper's section 3.4.1 external builder). A crash at any \
             point leaves the previous catalog version live; stale files are \
             garbage-collected on the next open.")
    Term.(const run $ alphabet_arg $ live_index_arg $ full)

(* --- search --- *)

let format_conv =
  let parse = function
    | "plain" -> Ok `Plain
    | "tabular" | "tab" | "m8" -> Ok `Tabular
    | "pairwise" -> Ok `Pairwise
    | other -> Error (`Msg (Printf.sprintf "unknown format %S (plain|tabular|pairwise)" other))
  in
  let print ppf f =
    Format.pp_print_string ppf
      (match f with `Plain -> "plain" | `Tabular -> "tabular" | `Pairwise -> "pairwise")
  in
  Arg.conv (parse, print)

let gap_of gap_penalty gap_open =
  match gap_open with
  | None -> Scoring.Gap.linear gap_penalty
  | Some open_cost -> Scoring.Gap.affine ~open_cost ~extend_cost:gap_penalty

(* Rebuild the shard sub-databases a sharded index was built over; the
   manifest, not a fresh plan, is the source of truth. *)
let pieces_of_manifest db entries =
  let total =
    Array.fold_left
      (fun acc (e : Storage.Shard_manifest.entry) -> acc + e.num_seqs)
      0 entries
  in
  if total <> Bioseq.Database.num_sequences db then
    failwith
      (Printf.sprintf
         "sharded index covers %d sequences but the FASTA has %d — wrong \
          database for this index?"
         total
         (Bioseq.Database.num_sequences db));
  Array.map
    (fun (e : Storage.Shard_manifest.entry) ->
      let seqs =
        List.init e.num_seqs (fun i -> Bioseq.Database.seq db (e.first_seq + i))
      in
      let piece =
        { Oasis.Shard.db = Bioseq.Database.make seqs; first_seq = e.first_seq }
      in
      if Bioseq.Database.total_symbols piece.Oasis.Shard.db <> e.symbols then
        failwith
          (Printf.sprintf
             "shard %d: manifest records %d symbols, FASTA slice has %d — \
              wrong database for this index?"
             e.first_seq e.symbols
             (Bioseq.Database.total_symbols piece.Oasis.Shard.db));
      piece)
    entries

let search_cmd =
  let run fasta alphabet index_dir query_text queries_path batch_size matrix
      gap_penalty gap_open min_score evalue top with_alignments evalue_order
      format buffer_blocks max_columns max_nodes time_limit shards stats
      trace_file seed_cutoff use_profile =
    (match (query_text, queries_path) with
    | None, None -> failwith "give --query or --queries"
    | Some _, Some _ -> failwith "give only one of --query and --queries"
    | _ -> ());
    if batch_size < 1 || batch_size > 512 then
      failwith "--batch-size must be in [1, 512]";
    (* A live (log-structured) index carries its own sequences, so
       --db is optional there; everywhere else it is the database. *)
    let live =
      match index_dir with
      | Some dirpath
        when Storage.Live_index.exists (Storage.Vfs.dir dirpath) ->
        Some (live_open ~alphabet (Storage.Vfs.dir dirpath))
      | _ -> None
    in
    let seqs =
      match (live, fasta) with
      | Some t, _ -> Storage.Live_index.sequences t
      | None, Some f -> Bioseq.Fasta.read_file ~alphabet f
      | None, None ->
        failwith
          "--db is required (only a live log-structured --index carries its \
           own sequences)"
    in
    let db = Bioseq.Database.make seqs in
    let gap = gap_of gap_penalty gap_open in
    let min_score =
      match (min_score, evalue) with
      | Some s, None -> s
      | None, Some e ->
        let qlen =
          match query_text with
          | Some qt -> String.length qt
          | None ->
            failwith
              "--evalue needs a single --query (its score cutoff depends on \
               the query length; batch mode takes --min-score)"
        in
        let freqs = Scoring.Background.of_database db in
        let params = Scoring.Karlin.estimate ~matrix ~freqs () in
        let s =
          Scoring.Karlin.score_for_evalue params ~m:qlen
            ~n:(Bioseq.Database.total_symbols db)
            ~evalue:e
        in
        Printf.printf "E=%g -> minScore %d (%s)\n%!" e s
          (Format.asprintf "%a" Scoring.Karlin.pp_params params);
        s
      | None, None -> 1
      | Some _, Some _ ->
        failwith "give at most one of --min-score and --evalue"
    in
    let budget =
      Oasis.Engine.budget ?max_columns ?max_expanded:max_nodes ?time_limit ()
    in
    let config = Oasis.Engine.config ~matrix ~gap ~min_score ~budget () in
    (* Cutoff seeding (--seed-cutoff, DESIGN.md §2k): one heuristic
       BLAST pass per query; each BLAST hit score is achieved by a real
       alignment, so the k-th best of them lower-bounds the true k-th
       best hit score and raising min_score to it is monotone-safe for
       a top-K (by score) consumer. Not sound under --evalue-order,
       where the top K by E-value can include lower-scoring hits. *)
    if seed_cutoff && evalue_order then
      failwith
        "--seed-cutoff tightens the score cutoff below the K-th best score, \
         which can drop hits the E-value order would have ranked inside the \
         top K; drop one of --seed-cutoff / --evalue-order";
    let blast_cfg =
      if not seed_cutoff then None
      else
        let freqs = Scoring.Background.of_database db in
        match Scoring.Karlin.estimate ~matrix ~freqs () with
        | params ->
          Some
            (if Bioseq.Alphabet.size alphabet <= 4 then
               Blast.Search.default_dna ~matrix ~gap ~params ()
             else Blast.Search.default_protein ~matrix ~gap ~params ())
        | exception Scoring.Karlin.Unsupported_matrix _ ->
          Printf.printf
            "# seed cutoff skipped: no Karlin parameters for this matrix\n";
          None
    in
    let seeded_config query =
      match blast_cfg with
      | None -> config
      | Some bcfg ->
        let s = Blast.Seed.min_score bcfg ~query ~db ~k:top ~floor:min_score in
        if s > min_score then begin
          Printf.printf
            "# seed cutoff: BLAST pass raises minScore %d -> %d (top %d)\n%!"
            min_score s top;
          Oasis.Engine.config ~matrix ~gap ~min_score:s ~budget ()
        end
        else config
    in
    (* The q-gram filter tier (--profile): built from the in-memory
       tree, or loaded from the qgram.prf sidecar an indexing run with
       --profile left next to each on-disk index. *)
    let mem_profile ~db tree =
      if use_profile then Some (Quasar.Profile.build ~db ~tree ()) else None
    in
    let disk_profile dir =
      if not use_profile then None
      else
        let path = Filename.concat dir profile_filename in
        if not (Storage.Blob.exists path) then begin
          Printf.printf
            "# no q-gram profile at %s (index with --profile to store one); \
             filter tier disarmed\n"
            path;
          None
        end
        else
          match Storage.Blob.load path with
          | Ok payload -> Some (Quasar.Profile.of_bytes payload)
          | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
    in
    (* When a budget stops the search early it does so cleanly: printed
       hits are exact, and the frontier bound says what could remain. *)
    let report_outcome = function
      | Oasis.Engine.Exhausted { remaining_bound } ->
        Printf.printf "# budget exhausted: unreported hits score <= %d\n"
          remaining_bound
      | Oasis.Engine.Searching | Oasis.Engine.Complete -> ()
    in
    let report ~query i hit evalue =
      match format with
      | `Tabular | `Pairwise ->
        let r =
          Report.Render.row ~matrix ~gap ~db ~query
            ~seq_index:hit.Oasis.Hit.seq_index ()
        in
        let r =
          { r with Report.Render.evalue; bit_score = None }
        in
        let fmt =
          match format with
          | `Tabular -> Report.Render.Tabular
          | _ -> Report.Render.Pairwise
        in
        print_string (Report.Render.to_string fmt [ r ])
      | `Plain ->
        let target = Bioseq.Database.seq db hit.Oasis.Hit.seq_index in
        Printf.printf "%4d. %-24s score %-5d%s (ends: query %d, target %d)\n" i
          (Bioseq.Sequence.id target) hit.Oasis.Hit.score
          (match evalue with
          | None -> ""
          | Some e -> Printf.sprintf " E=%-10.3g" e)
          hit.Oasis.Hit.query_stop hit.Oasis.Hit.target_stop;
        if with_alignments then
          let a = Align.Smith_waterman.align ~matrix ~gap ~query ~target in
          Format.printf "@[<v 6>      %a@]@." (Align.Alignment.pp ~query ~target) a
    in
    let stream ~query next =
      let rec go i =
        if i > top then ()
        else
          match next () with
          | None -> ()
          | Some (hit, evalue) ->
            report ~query i hit evalue;
            go (i + 1)
      in
      go 1
    in
    (* Observability: --stats registers every layer's metrics in one
       registry and prints them after the search; --trace streams
       structured events (JSONL, or Chrome trace_event for .json/.trace
       paths). Engine-level hooks attach on the single-engine paths;
       sharded searches record the merge (release latency, occupancy,
       frontier bounds) — per-shard engines run on worker domains where
       a shared sink would race. *)
    let registry = Obs.Registry.create () in
    let trace_sink =
      Option.map
        (fun path ->
          let oc = open_out path in
          (Obs.Trace.create ~format:(Obs.Trace.format_of_path path) oc, oc))
        trace_file
    in
    let sink = Option.map fst trace_sink in
    let observing = stats || sink <> None in
    let inst =
      if observing then Some (Oasis.Instrument.create ~registry ?trace:sink ())
      else None
    in
    let merge_obs () =
      if observing then
        Some (Oasis.Instrument.merge_obs ~registry ?trace:sink ())
      else None
    in
    let wall0 = ref 0. in
    let finish ?(sharded = false) counters =
      let wall = Unix.gettimeofday () -. !wall0 in
      (match sink with
      | Some s ->
        Oasis.Instrument.emit_counters s ~sharded counters;
        Obs.Trace.close s
      | None -> ());
      (match trace_sink with Some (_, oc) -> close_out oc | None -> ());
      if stats then begin
        Printf.printf "# --- search stats ---\n";
        Printf.printf "# wall %26.3f ms\n" (wall *. 1e3);
        (match inst with
        | Some i ->
          let timer = i.Oasis.Instrument.timer in
          let total = Obs.Timer.total timer in
          if total > 0. then begin
            Printf.printf "# phases:\n";
            List.iter
              (fun (name, s) ->
                Printf.printf "#   %-10s %16.3f ms  %5.1f%%\n" name (s *. 1e3)
                  (if total > 0. then 100. *. s /. total else 0.))
              (List.sort
                 (fun (_, a) (_, b) -> compare (b : float) a)
                 (Obs.Timer.phases timer));
            Printf.printf "#   %-10s %16.3f ms  (%.1f%% of wall)\n" "sum"
              (total *. 1e3)
              (if wall > 0. then 100. *. total /. wall else 0.)
          end
        | None -> ());
        let items = Obs.Registry.items registry in
        if items <> [] then begin
          Printf.printf "# metrics:\n";
          List.iter
            (fun (name, m) ->
              let body =
                match m with
                | Obs.Registry.Counter c ->
                  Format.asprintf "%a" Obs.Metric.pp_counter c
                | Obs.Registry.Gauge g ->
                  Format.asprintf "%a" Obs.Metric.pp_gauge g
                | Obs.Registry.Histogram h ->
                  Format.asprintf "%a" Obs.Metric.pp_histogram h
              in
              Printf.printf "#   %-28s %s\n" name body)
            items
        end;
        Printf.printf "# work: %d columns, %d expanded, %d enqueued, %d \
                       pruned, queue peak %d\n"
          counters.Oasis.Engine.columns counters.Oasis.Engine.nodes_expanded
          counters.Oasis.Engine.nodes_enqueued
          counters.Oasis.Engine.nodes_pruned counters.Oasis.Engine.max_queue
      end
    in
    (* With --evalue-order, wrap the engine in the length-adjusted
       E-value stream (§4.3). *)
    let with_order (type e) ~query
        (module D : Oasis.Engine.DRIVER with type t = e) (engine : e) =
      if not evalue_order then fun () ->
        Option.map (fun h -> (h, None)) (D.next engine)
      else begin
        let freqs = Scoring.Background.of_database db in
        let params = Scoring.Karlin.estimate ~matrix ~freqs () in
        let module Stream = Oasis.Evalue_stream.Make (D) in
        let stream =
          Stream.create ~driver:engine ~db ~params
            ~query_length:(Bioseq.Sequence.length query)
        in
        fun () -> Option.map (fun (h, e) -> (h, Some e)) (Stream.next stream)
      end
    in
    let run_single query =
      let config = seeded_config query in
      match (live, index_dir) with
      | Some t, _ ->
        (* Live log-structured index: search the pinned {segments ∪ tail}
           snapshot through the order-preserving merge. *)
      Fun.protect
        ~finally:(fun () -> Storage.Live_index.close t)
        (fun () ->
          let snap = Storage.Live_index.snapshot t in
          Fun.protect
            ~finally:(fun () -> Storage.Live_index.release t snap)
            (fun () ->
              match Oasis.Multi.parts_of_snapshot snap with
              | [||] -> Printf.printf "# empty index, no hits\n"
              | parts ->
                let profiles =
                  if not use_profile then None
                  else
                    Some
                      (Array.map
                         (function
                           | Oasis.Multi.Mem { tree; db = pdb; _ } ->
                             mem_profile ~db:pdb tree
                           | Oasis.Multi.Disk _ -> None)
                         parts)
                in
                let m = Oasis.Multi.create ?profiles ~parts ~query config in
                wall0 := Unix.gettimeofday ();
                stream ~query (with_order ~query (module Oasis.Multi) m);
                report_outcome (Oasis.Multi.outcome m);
                Printf.printf "# live index, %s\n" (live_summary t);
                finish ~sharded:true (Oasis.Multi.counters m)))
    | None, None when shards > 1 ->
      (* Sharded in-memory search: one tree + engine per shard on a
         domain pool, merged preserving the decreasing-score order.
         With --profile the plan/build is done here so each shard gets
         its own profile (and the merge gets per-shard gram caps). *)
      let t =
        if not use_profile then
          Oasis.Parallel.Mem.create_sharded ?obs:(merge_obs ()) ~shards ~db
            ~query config
        else begin
          let pieces = Oasis.Shard.plan ~shards db in
          let trees = Oasis.Shard.build_trees pieces in
          let sources =
            Array.mapi
              (fun i piece -> { Oasis.Parallel.Mem.source = trees.(i); piece })
              pieces
          in
          let profiles =
            Array.mapi
              (fun i (piece : Oasis.Shard.piece) ->
                mem_profile ~db:piece.db trees.(i))
              pieces
          in
          Oasis.Parallel.Mem.create ?obs:(merge_obs ()) ~profiles
            ~shards:sources ~query config
        end
      in
      wall0 := Unix.gettimeofday ();
      stream ~query (with_order ~query (module Oasis.Parallel.Mem) t);
      report_outcome (Oasis.Parallel.Mem.outcome t);
      finish ~sharded:true (Oasis.Parallel.Mem.counters t)
    | None, None ->
      (* In-memory index. *)
      let tree = Suffix_tree.Ukkonen.build db in
      let filter = mem_profile ~db tree in
      let engine = Oasis.Engine.Mem.create ?filter ~source:tree ~db ~query config in
      Oasis.Engine.Mem.set_instrument engine inst;
      wall0 := Unix.gettimeofday ();
      stream ~query (with_order ~query (module Oasis.Engine.Mem) engine);
      report_outcome (Oasis.Engine.Mem.outcome engine);
      finish (Oasis.Engine.Mem.counters engine)
    | None, Some dir when Storage.Shard_manifest.exists ~dir ->
      (* Sharded on-disk index: the manifest names the partition; each
         shard opens its own components and buffer pool (the pool is
         single-threaded by design, so shards must not share one). *)
      let entries = Storage.Shard_manifest.load ~dir in
      let pieces = pieces_of_manifest db entries in
      let k = Array.length pieces in
      let per_shard_blocks = max 16 (buffer_blocks / k) in
      let devices = ref [] in
      Fun.protect
        ~finally:(fun () -> List.iter Storage.Device.close !devices)
        (fun () ->
          let sources =
            Array.mapi
              (fun i piece ->
                let sym_p, int_p, leaf_p =
                  index_files (Storage.Shard_manifest.shard_dir dir i)
                in
                let symbols = Storage.Device.open_file sym_p
                and internal = Storage.Device.open_file int_p
                and leaves = Storage.Device.open_file leaf_p in
                devices := symbols :: internal :: leaves :: !devices;
                let pool =
                  Storage.Buffer_pool.create ~block_size:2048
                    ~capacity:per_shard_blocks
                in
                let source =
                  Storage.Disk_tree.open_ ~alphabet ~pool ~symbols ~internal
                    ~leaves ()
                in
                { Oasis.Parallel.Disk.source; piece })
              pieces
          in
          let profiles =
            if not use_profile then None
            else
              Some
                (Array.init k (fun i ->
                     disk_profile (Storage.Shard_manifest.shard_dir dir i)))
          in
          let t =
            Oasis.Parallel.Disk.create ?obs:(merge_obs ()) ?profiles
              ~shards:sources ~query config
          in
          wall0 := Unix.gettimeofday ();
          stream ~query (with_order ~query (module Oasis.Parallel.Disk) t);
          report_outcome (Oasis.Parallel.Disk.outcome t);
          Printf.printf "# %d shards, %d buffer blocks each\n" k
            per_shard_blocks;
          finish ~sharded:true (Oasis.Parallel.Disk.counters t))
    | None, Some dir ->
      let sym_p, int_p, leaf_p = index_files dir in
      let symbols = Storage.Device.open_file sym_p
      and internal = Storage.Device.open_file int_p
      and leaves = Storage.Device.open_file leaf_p in
      let pool = Storage.Buffer_pool.create ~block_size:2048 ~capacity:buffer_blocks in
      let dt = Storage.Disk_tree.open_ ~alphabet ~pool ~symbols ~internal ~leaves () in
      let filter = disk_profile dir in
      let engine = Oasis.Engine.Disk.create ?filter ~source:dt ~db ~query config in
      Oasis.Engine.Disk.set_instrument engine inst;
      if observing then
        Storage.Buffer_pool.set_obs pool
          (Some (Storage.Buffer_pool.obs ~registry ?trace:sink ()));
      wall0 := Unix.gettimeofday ();
      stream ~query (with_order ~query (module Oasis.Engine.Disk) engine);
      report_outcome (Oasis.Engine.Disk.outcome engine);
      finish (Oasis.Engine.Disk.counters engine);
      let c = Oasis.Engine.Disk.counters engine in
      Printf.printf
        "# engine pool I/O: %d hits / %d misses (%d table probes, %d memo \
         hits)\n"
        c.Oasis.Engine.io_hits c.Oasis.Engine.io_misses
        (Storage.Buffer_pool.probes pool)
        (Storage.Buffer_pool.memo_hits pool);
      List.iter
        (fun (name, comp) ->
          let s = Storage.Disk_tree.component_stats dt comp in
          Printf.printf "# %s: %d hits / %d misses (ratio %.3f)\n" name
            s.Storage.Buffer_pool.hits s.Storage.Buffer_pool.misses
            (Storage.Buffer_pool.hit_ratio s))
        [
          ("symbols", Storage.Disk_tree.Symbols);
          ("internal", Storage.Disk_tree.Internal_nodes);
          ("leaves", Storage.Disk_tree.Leaves);
        ];
      List.iter Storage.Device.close [ symbols; internal; leaves ]
    in
    (* Multi-query batch mode: one fused kernel per (chunk, tree), so a
       tree node is expanded — its page pinned and decoded — once for
       every query of a chunk instead of once per query. Sharded and
       multi-part sources run one fused search per part and merge each
       query's complete streams in the sharded coordinator's release
       order, so output order matches the single-query paths. *)
    let run_batch queries =
      if evalue_order then
        failwith "--evalue-order is not supported with --queries";
      let queries = Array.of_list queries in
      let nq = Array.length queries in
      (* One shared config for every fused kernel: the seed must be
         safe for all queries at once, so take the min of the
         per-query BLAST k-th-best scores (each is ≤ its own query's
         true k-th best, hence so is the min). *)
      let config =
        match blast_cfg with
        | None -> config
        | Some bcfg ->
          let s =
            Array.fold_left
              (fun acc query ->
                min acc
                  (Blast.Seed.min_score bcfg ~query ~db ~k:top
                     ~floor:min_score))
              max_int queries
          in
          if s > min_score then begin
            Printf.printf
              "# seed cutoff: BLAST pass raises minScore %d -> %d (min over \
               %d queries, top %d)\n%!"
              min_score s nq top;
            Oasis.Engine.config ~matrix ~gap ~min_score:s ~budget ()
          end
          else config
      in
      let all_hits = Array.make nq [] in
      let all_outcomes = Array.make nq Oasis.Engine.Complete in
      let phys = ref Oasis.Counters.zero in
      let virt_cols = ref 0 in
      (* One fused kernel over [chunk]; heterogeneous tree sources hide
         behind this first-class module. *)
      let fused (type s)
          (module K : Oasis.Batch_kernel.S with type source = s)
          ?filter ~(source : s) ~db:part_db ~globalize chunk =
        let k = K.create ?filter ~source ~db:part_db ~queries:chunk config in
        K.set_instrument k inst;
        K.run k;
        let n = Array.length chunk in
        let h = Array.init n (fun q -> List.map globalize (K.hits k q)) in
        let o = Array.init n (fun q -> K.outcome k q) in
        phys := Oasis.Counters.merge !phys (K.shared_counters k);
        for q = 0 to n - 1 do
          virt_cols := !virt_cols + (K.counters k q).Oasis.Engine.columns
        done;
        (h, o)
      in
      let no_globalize h = h in
      let shift first_seq h =
        { h with Oasis.Hit.seq_index = h.Oasis.Hit.seq_index + first_seq }
      in
      (* Drive every chunk through every part and merge per query. *)
      let run_parts part_runners =
        let nparts = List.length part_runners in
        let base = ref 0 in
        while !base < nq do
          let len = min batch_size (nq - !base) in
          let chunk = Array.sub queries !base len in
          let per_part = List.map (fun r -> r chunk) part_runners in
          for q = 0 to len - 1 do
            let streams =
              Array.of_list (List.map (fun (h, _) -> h.(q)) per_part)
            in
            let outs =
              Array.of_list (List.map (fun (_, o) -> o.(q)) per_part)
            in
            all_hits.(!base + q) <-
              (if nparts = 1 then streams.(0)
               else Oasis.Batch.merge_streams streams);
            all_outcomes.(!base + q) <- Oasis.Batch.merge_outcomes outs
          done;
          base := !base + len
        done
      in
      let print_results ~sharded =
        Array.iteri
          (fun qi query ->
            let hits = all_hits.(qi) in
            Printf.printf "# query %s: %d hit(s)%s\n"
              (Bioseq.Sequence.id query) (List.length hits)
              (match all_outcomes.(qi) with
              | Oasis.Engine.Exhausted { remaining_bound } ->
                Printf.sprintf "; budget exhausted, unreported <= %d"
                  remaining_bound
              | _ -> "");
            List.iteri
              (fun i hit -> if i < top then report ~query (i + 1) hit None)
              hits)
          queries;
        let p = !phys in
        Printf.printf
          "# fused batch: %d queries in chunks of %d; %d virtual columns \
           served by %d physical DP sweeps (%.2fx)\n"
          nq batch_size !virt_cols p.Oasis.Engine.columns
          (if p.Oasis.Engine.columns > 0 then
             float_of_int !virt_cols /. float_of_int p.Oasis.Engine.columns
           else 1.);
        finish ~sharded p
      in
      match (live, index_dir) with
      | Some t, _ ->
        Fun.protect
          ~finally:(fun () -> Storage.Live_index.close t)
          (fun () ->
            let snap = Storage.Live_index.snapshot t in
            Fun.protect
              ~finally:(fun () -> Storage.Live_index.release t snap)
              (fun () ->
                match Oasis.Multi.parts_of_snapshot snap with
                | [||] -> Printf.printf "# empty index, no hits\n"
                | parts ->
                  let runners =
                    Array.to_list parts
                    |> List.map (function
                      | Oasis.Multi.Mem { tree; db = pdb; first_seq } ->
                        let filter = mem_profile ~db:pdb tree in
                        fun chunk ->
                          fused
                            (module Oasis.Batch_kernel.Mem)
                            ?filter ~source:tree ~db:pdb
                            ~globalize:(shift first_seq) chunk
                      | Oasis.Multi.Disk { tree; db = pdb; first_seq } ->
                        fun chunk ->
                          fused
                            (module Oasis.Batch_kernel.Disk)
                            ~source:tree ~db:pdb ~globalize:(shift first_seq)
                            chunk)
                  in
                  wall0 := Unix.gettimeofday ();
                  run_parts runners;
                  Printf.printf "# live index, %s\n" (live_summary t);
                  print_results ~sharded:true))
      | None, None when shards > 1 ->
        let pieces = Oasis.Shard.plan ~shards db in
        let trees = Oasis.Shard.build_trees pieces in
        let runners =
          Array.to_list
            (Array.mapi
               (fun i (piece : Oasis.Shard.piece) ->
                 let tree = trees.(i) in
                 let filter = mem_profile ~db:piece.db tree in
                 fun chunk ->
                   fused
                     (module Oasis.Batch_kernel.Mem)
                     ?filter ~source:tree ~db:piece.db
                     ~globalize:(Oasis.Shard.globalize piece) chunk)
               pieces)
        in
        wall0 := Unix.gettimeofday ();
        run_parts runners;
        Printf.printf "# %d shards (fused per shard)\n" (Array.length pieces);
        print_results ~sharded:true
      | None, None ->
        let tree = Suffix_tree.Ukkonen.build db in
        let filter = mem_profile ~db tree in
        wall0 := Unix.gettimeofday ();
        run_parts
          [
            (fun chunk ->
              fused
                (module Oasis.Batch_kernel.Mem)
                ?filter ~source:tree ~db ~globalize:no_globalize chunk);
          ];
        print_results ~sharded:false
      | None, Some dir when Storage.Shard_manifest.exists ~dir ->
        let entries = Storage.Shard_manifest.load ~dir in
        let pieces = pieces_of_manifest db entries in
        let nshards = Array.length pieces in
        let per_shard_blocks = max 16 (buffer_blocks / nshards) in
        let devices = ref [] in
        Fun.protect
          ~finally:(fun () -> List.iter Storage.Device.close !devices)
          (fun () ->
            let runners =
              Array.to_list
                (Array.mapi
                   (fun i (piece : Oasis.Shard.piece) ->
                     let sym_p, int_p, leaf_p =
                       index_files (Storage.Shard_manifest.shard_dir dir i)
                     in
                     let symbols = Storage.Device.open_file sym_p
                     and internal = Storage.Device.open_file int_p
                     and leaves = Storage.Device.open_file leaf_p in
                     devices := symbols :: internal :: leaves :: !devices;
                     let pool =
                       Storage.Buffer_pool.create ~block_size:2048
                         ~capacity:per_shard_blocks
                     in
                     let source =
                       Storage.Disk_tree.open_ ~alphabet ~pool ~symbols
                         ~internal ~leaves ()
                     in
                     let filter =
                       disk_profile (Storage.Shard_manifest.shard_dir dir i)
                     in
                     fun chunk ->
                       fused
                         (module Oasis.Batch_kernel.Disk)
                         ?filter ~source ~db:piece.db
                         ~globalize:(Oasis.Shard.globalize piece) chunk)
                   pieces)
            in
            wall0 := Unix.gettimeofday ();
            run_parts runners;
            Printf.printf "# %d shards, %d buffer blocks each\n" nshards
              per_shard_blocks;
            print_results ~sharded:true)
      | None, Some dir ->
        let sym_p, int_p, leaf_p = index_files dir in
        let symbols = Storage.Device.open_file sym_p
        and internal = Storage.Device.open_file int_p
        and leaves = Storage.Device.open_file leaf_p in
        let pool =
          Storage.Buffer_pool.create ~block_size:2048 ~capacity:buffer_blocks
        in
        let dt =
          Storage.Disk_tree.open_ ~alphabet ~pool ~symbols ~internal ~leaves ()
        in
        if observing then
          Storage.Buffer_pool.set_obs pool
            (Some (Storage.Buffer_pool.obs ~registry ?trace:sink ()));
        let filter = disk_profile dir in
        wall0 := Unix.gettimeofday ();
        run_parts
          [
            (fun chunk ->
              fused
                (module Oasis.Batch_kernel.Disk)
                ?filter ~source:dt ~db ~globalize:no_globalize chunk);
          ];
        print_results ~sharded:false;
        let p = !phys in
        Printf.printf "# engine pool I/O: %d hits / %d misses\n"
          p.Oasis.Engine.io_hits p.Oasis.Engine.io_misses;
        List.iter Storage.Device.close [ symbols; internal; leaves ]
    in
    match queries_path with
    | None ->
      run_single
        (Bioseq.Sequence.make ~alphabet ~id:"query" (Option.get query_text))
    | Some qp ->
      let queries = Bioseq.Fasta.read_file ~alphabet qp in
      if queries = [] then failwith "no queries in the query FASTA";
      run_batch queries
  in
  let index_dir =
    Arg.(value & opt (some dir) None & info [ "index" ] ~docv:"DIR"
           ~doc:"On-disk index directory: either one built with \
                 $(b,oasis index), or a live log-structured one grown with \
                 $(b,oasis append) (detected automatically; --db is then \
                 unnecessary). Searches in memory when omitted.")
  in
  let query =
    Arg.(value & opt (some string) None & info [ "q"; "query" ] ~docv:"SEQ"
           ~doc:"Query sequence text (single-query mode; see --queries for \
                 batches).")
  in
  let queries_arg =
    Arg.(value & opt (some file) None & info [ "queries" ] ~docv:"FASTA"
           ~doc:"Multi-query FASTA: search every record through one fused \
                 batch kernel — each tree node is expanded once per chunk \
                 of queries instead of once per query. Per-query output is \
                 identical to running $(b,--query) on each record alone. \
                 Mutually exclusive with --query.")
  in
  let batch_size_arg =
    Arg.(value & opt int 16 & info [ "batch-size" ] ~docv:"K"
           ~doc:"Queries fused per kernel chunk with --queries (1-512).")
  in
  let matrix =
    Arg.(value & opt matrix_conv Scoring.Matrices.pam30 & info [ "matrix" ]
           ~docv:"NAME" ~doc:"Substitution matrix.")
  in
  let gap =
    Arg.(value & opt int 10 & info [ "gap" ] ~docv:"G"
           ~doc:"Gap penalty per symbol (the extension cost when \
                 --gap-open is given).")
  in
  let gap_open =
    Arg.(value & opt (some int) None & info [ "gap-open" ] ~docv:"GO"
           ~doc:"Affine gap opening cost; switches to the affine (Gotoh) \
                 model.")
  in
  let min_score =
    Arg.(value & opt (some int) None & info [ "min-score" ] ~docv:"S"
           ~doc:"Minimum alignment score to report.")
  in
  let evalue =
    Arg.(value & opt (some float) None & info [ "evalue" ] ~docv:"E"
           ~doc:"E-value cutoff (converted to a score via Karlin-Altschul \
                 statistics, Equation 3 of the paper).")
  in
  let top =
    Arg.(value & opt int 25 & info [ "top" ] ~docv:"K"
           ~doc:"Stop after K results (they stream out best-first).")
  in
  let with_alignments =
    Arg.(value & flag & info [ "align" ] ~doc:"Print full alignments.")
  in
  let evalue_order =
    Arg.(value & flag & info [ "evalue-order" ]
           ~doc:"Order results by length-adjusted E-value instead of raw \
                 score (stays online).")
  in
  let format =
    Arg.(value & opt format_conv `Plain & info [ "format" ] ~docv:"FMT"
           ~doc:"Output format: plain, tabular (BLAST outfmt 6) or pairwise.")
  in
  let buffer_blocks =
    Arg.(value & opt int 4096 & info [ "buffer-blocks" ] ~docv:"N"
           ~doc:"Buffer pool capacity in 2K blocks (disk index only).")
  in
  let max_columns =
    Arg.(value & opt (some int) None & info [ "max-columns" ] ~docv:"N"
           ~doc:"Search budget: stop after N dynamic-programming columns. \
                 Hits printed before the stop are exact; a final comment \
                 line bounds what was left unreported.")
  in
  let max_nodes =
    Arg.(value & opt (some int) None & info [ "max-nodes" ] ~docv:"N"
           ~doc:"Search budget: stop after N node expansions.")
  in
  let time_limit =
    Arg.(value & opt (some float) None & info [ "time-limit" ] ~docv:"SECONDS"
           ~doc:"Search budget: stop after this much wall-clock time.")
  in
  let shards =
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"K"
           ~doc:"Shard the in-memory search across K worker domains \
                 (partitioned at sequence boundaries; results keep the \
                 decreasing-score order). With --index, the shard count \
                 comes from the index's manifest and this flag is ignored.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"After the search, print a per-phase time table (queue / \
                 expand / dp / bound / emit), work histograms \
                 (expansion depth, arc columns, buffer-pool probe \
                 lengths) and counters for every instrumented layer.")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Stream structured search events (node expansions, hit \
                 emissions, queue high-water marks, buffer-pool misses, \
                 shard frontier updates) to FILE: Chrome trace_event \
                 JSON for .json/.trace paths (open in chrome://tracing \
                 or Perfetto), JSONL otherwise. Validate with \
                 scripts/trace_check.py.")
  in
  let seed_cutoff_arg =
    Arg.(value & flag & info [ "seed-cutoff" ]
           ~doc:"Seed the exact search's prune cutoff with a fast BLAST \
                 first pass: the K-th best heuristic hit score (K from \
                 --top) lower-bounds the true K-th best, so the exact \
                 engine can prune against it from its first expansion \
                 without changing the reported top K. Skipped with a note \
                 when Karlin statistics are unavailable for the matrix; \
                 incompatible with --evalue-order.")
  in
  let profile_arg =
    Arg.(value & flag & info [ "profile" ]
           ~doc:"Arm the exactness-preserving q-gram filter tier \
                 (DESIGN.md section 2k): subtrees the q-gram lemma proves \
                 cannot reach the score cutoff are settled without running \
                 their DP columns; hit streams and work counters are \
                 bit-identical either way. In-memory searches build the \
                 profile on the fly; --index searches load the qgram.prf \
                 sidecar stored by $(b,oasis index --profile) (disarmed \
                 with a note when absent).")
  in
  Cmd.v
    (Cmd.info "search"
       ~doc:"Accurate online local-alignment search (the OASIS algorithm).")
    Term.(
      const run
      $ opt_fasta_arg
          ~doc:"FASTA database (not needed with a live --index, which \
                carries its own sequences)."
          "db"
      $ alphabet_arg
      $ index_dir $ query $ queries_arg $ batch_size_arg $ matrix $ gap
      $ gap_open $ min_score $ evalue $ top $ with_alignments $ evalue_order
      $ format $ buffer_blocks $ max_columns $ max_nodes $ time_limit $ shards
      $ stats $ trace $ seed_cutoff_arg $ profile_arg)

(* --- batch --- *)

let batch_cmd =
  let run fasta alphabet queries_path batch_size matrix gap_penalty min_score
      domains format =
    let seqs = Bioseq.Fasta.read_file ~alphabet fasta in
    let db = Bioseq.Database.make seqs in
    let queries = Bioseq.Fasta.read_file ~alphabet queries_path in
    if queries = [] then failwith "no queries in the query FASTA";
    Printf.printf "# %d queries, %d database sequences, %d domain(s)\n%!"
      (List.length queries)
      (Bioseq.Database.num_sequences db)
      domains;
    let tree = Suffix_tree.Ukkonen.build db in
    let gap = Scoring.Gap.linear gap_penalty in
    let cfg = Oasis.Engine.config ~matrix ~gap ~min_score () in
    let t0 = Unix.gettimeofday () in
    let results = Oasis.Batch.run ~domains ~batch_size ~tree ~db ~queries cfg in
    let elapsed = Unix.gettimeofday () -. t0 in
    List.iter
      (fun r ->
        let query = List.nth queries r.Oasis.Batch.query_index in
        match format with
        | `Tabular ->
          let rows =
            List.map
              (fun h ->
                Report.Render.row ~matrix ~gap ~db ~query
                  ~seq_index:h.Oasis.Hit.seq_index ())
              r.Oasis.Batch.hits
          in
          print_string (Report.Render.to_string Report.Render.Tabular rows)
        | _ ->
          Printf.printf "%s: %d hits\n" (Bioseq.Sequence.id query)
            (List.length r.Oasis.Batch.hits))
      results;
    Printf.printf "# batch completed in %.2fs\n" elapsed
  in
  let queries_path =
    Arg.(required & opt (some file) None & info [ "queries" ] ~docv:"FASTA"
           ~doc:"FASTA file of query sequences.")
  in
  let batch_size =
    Arg.(value & opt int 16 & info [ "batch-size" ] ~docv:"K"
           ~doc:"Queries fused per kernel chunk (1-512; 1 runs each query \
                 through its own engine).")
  in
  let matrix =
    Arg.(value & opt matrix_conv Scoring.Matrices.pam30 & info [ "matrix" ]
           ~docv:"NAME" ~doc:"Substitution matrix.")
  in
  let gap =
    Arg.(value & opt int 10 & info [ "gap" ] ~docv:"G"
           ~doc:"Fixed (linear) gap penalty per symbol.")
  in
  let min_score =
    Arg.(value & opt int 20 & info [ "min-score" ] ~docv:"S"
           ~doc:"Minimum alignment score to report.")
  in
  let domains =
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"D"
           ~doc:"Worker domains (parallel when > 1).")
  in
  let format =
    Arg.(value & opt format_conv `Plain & info [ "format" ] ~docv:"FMT"
           ~doc:"Output format: plain or tabular.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Search a whole FASTA file of queries, optionally across several \
             domains.")
    Term.(
      const run $ fasta_arg ~doc:"FASTA database." "db" $ alphabet_arg
      $ queries_path $ batch_size $ matrix $ gap $ min_score $ domains
      $ format)

(* --- compare --- *)

let compare_cmd =
  let run fasta alphabet query_text matrix gap_penalty min_score =
    let seqs = Bioseq.Fasta.read_file ~alphabet fasta in
    let db = Bioseq.Database.make seqs in
    let query = Bioseq.Sequence.make ~alphabet ~id:"query" query_text in
    let gap = Scoring.Gap.linear gap_penalty in
    let time f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (r, Unix.gettimeofday () -. t0)
    in
    let freqs = Scoring.Background.of_database db in
    let params = Scoring.Karlin.estimate ~matrix ~freqs () in
    let tree, t_tree = time (fun () -> Suffix_tree.Ukkonen.build db) in
    let sa, t_sa = time (fun () -> Suffix_tree.Suffix_array.build db) in
    Printf.printf "index build: suffix tree %.2fs, suffix array %.2fs\n\n"
      t_tree t_sa;
    let cfg = Oasis.Engine.config ~matrix ~gap ~min_score () in
    let oasis_hits, t_oasis =
      time (fun () ->
          Oasis.Engine.Mem.run
            (Oasis.Engine.Mem.create ~source:tree ~db ~query cfg))
    in
    let oasis_set =
      List.sort compare
        (List.map (fun h -> (h.Oasis.Hit.seq_index, h.Oasis.Hit.score)) oasis_hits)
    in
    let (sw_hits, _), t_sw =
      time (fun () ->
          Align.Smith_waterman.search ~matrix ~gap ~query ~db ~min_score)
    in
    let sw_set =
      List.sort compare
        (List.map (fun h -> Align.Smith_waterman.(h.seq_index, h.score)) sw_hits)
    in
    let (blast_hits, _), t_blast =
      time (fun () ->
          let bcfg = Blast.Search.default_protein ~matrix ~gap ~params () in
          Blast.Search.search bcfg ~query ~db)
    in
    let (quasar_hits, qstats), t_quasar =
      time (fun () ->
          let qcfg =
            Quasar.Filter.config ~matrix ~gap ~min_score
              ~query_length:(Bioseq.Sequence.length query) ()
          in
          Quasar.Filter.search qcfg ~sa ~query)
    in
    Printf.printf "%-16s %10s %8s %s\n" "method" "time(ms)" "hits" "notes";
    Printf.printf "%-16s %10.1f %8d exact, online\n" "oasis"
      (1000. *. t_oasis) (List.length oasis_hits);
    Printf.printf "%-16s %10.1f %8d exact, exhaustive%s\n" "smith-waterman"
      (1000. *. t_sw) (List.length sw_hits)
      (if sw_set = oasis_set then " (= oasis)" else " (DISAGREES with oasis!)");
    Printf.printf "%-16s %10.1f %8d heuristic (may miss)\n" "blast"
      (1000. *. t_blast) (List.length blast_hits);
    Printf.printf "%-16s %10.1f %8d heuristic filter (verified %.1f%% of db)\n"
      "quasar" (1000. *. t_quasar) (List.length quasar_hits)
      (100.
      *. float_of_int qstats.Quasar.Filter.verified_symbols
      /. float_of_int (Bioseq.Database.total_symbols db))
  in
  let query =
    Arg.(required & opt (some string) None & info [ "q"; "query" ] ~docv:"SEQ"
           ~doc:"Query sequence text.")
  in
  let matrix =
    Arg.(value & opt matrix_conv Scoring.Matrices.pam30 & info [ "matrix" ]
           ~docv:"NAME" ~doc:"Substitution matrix.")
  in
  let gap =
    Arg.(value & opt int 10 & info [ "gap" ] ~docv:"G"
           ~doc:"Fixed (linear) gap penalty per symbol.")
  in
  let min_score =
    Arg.(value & opt int 20 & info [ "min-score" ] ~docv:"S"
           ~doc:"Minimum alignment score to report.")
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Run OASIS, Smith-Waterman, BLAST and the QUASAR filter on one \
             query and compare answers and cost.")
    Term.(
      const run $ fasta_arg ~doc:"FASTA database." "db" $ alphabet_arg $ query
      $ matrix $ gap $ min_score)

(* --- verify-index --- *)

let level_conv =
  let parse = function
    | "off" -> Ok `Off
    | "footer" -> Ok `Footer
    | "full" -> Ok `Full
    | other ->
      Error (`Msg (Printf.sprintf "unknown level %S (off|footer|full)" other))
  in
  let print ppf l =
    Format.pp_print_string ppf
      (match l with `Off -> "off" | `Footer -> "footer" | `Full -> "full")
  in
  Arg.conv (parse, print)

(* Health table for a live log-structured index: one row per sealed
   segment plus the journal. Exit is non-zero only for non-recoverable
   states — a torn or corrupt journal TAIL is a normal post-crash
   condition that the next open truncates. *)
let verify_live_index ~alphabet ~level fs =
  let verify =
    match level with
    | `Off -> Storage.Disk_tree.Off
    | `Footer | `Full -> Storage.Disk_tree.Footer
  in
  match Storage.Live_index.inspect ~verify ~alphabet fs with
  | Error msg ->
    Printf.eprintf "FAIL: %s\n" msg;
    exit 1
  | Ok h ->
    Printf.printf "live index, catalog v%d, %d sequences\n"
      h.Storage.Live_index.health_version
      h.Storage.Live_index.health_sequences;
    Printf.printf "  %-18s %-10s %10s  %s\n" "file" "state" "sequences"
      "detail";
    List.iter
      (fun (s : Storage.Live_index.segment_health) ->
        Printf.printf "  %-18s %-10s %10d  %s\n"
          s.segment.Storage.Catalog.name
          (if s.segment_ok then "sealed" else "CORRUPT")
          s.segment.Storage.Catalog.num_seqs s.segment_detail)
      h.Storage.Live_index.health_segments;
    let j = h.Storage.Live_index.health_journal in
    let state, detail =
      if not j.journal_readable then
        ("UNREADABLE", "damaged header; not recoverable")
      else
        match j.journal_state with
        | Storage.Segment_log.Sealed -> ("clean", "every record intact")
        | Storage.Segment_log.Torn ->
          ("torn", "incomplete tail record; the next open truncates it")
        | Storage.Segment_log.Corrupted ->
          ("corrupt", "damaged tail record; the next open truncates it")
    in
    Printf.printf "  %-18s %-10s %10d  %s\n" j.journal_file state
      j.journal_records detail;
    if h.Storage.Live_index.recoverable then
      Printf.printf "OK: recoverable (opening replays the journal)\n"
    else begin
      Printf.eprintf "FAIL: not recoverable\n";
      exit 1
    end

let verify_index_cmd =
  let run fasta alphabet dir level =
    let fs = Storage.Vfs.dir dir in
    if Storage.Live_index.exists fs then verify_live_index ~alphabet ~level fs
    else begin
    let fasta =
      match fasta with
      | Some f -> f
      | None ->
        failwith
          "--db is required for a static index (only a live log-structured \
           index carries its own sequences)"
    in
    let seqs = Bioseq.Fasta.read_file ~alphabet fasta in
    let db = Bioseq.Database.make seqs in
    let sym_p, int_p, leaf_p = index_files dir in
    let symbols = Storage.Device.open_file sym_p
    and internal = Storage.Device.open_file int_p
    and leaves = Storage.Device.open_file leaf_p in
    Fun.protect
      ~finally:(fun () ->
        List.iter Storage.Device.close [ symbols; internal; leaves ])
      (fun () ->
        (* The symbols payload (footer excluded) must be exactly the
           database concatenation. *)
        let expected =
          Bytes.sub (Bioseq.Database.data db) 0
            (Bioseq.Database.data_length db)
        in
        let sym_payload =
          match Storage.Footer.read symbols with
          | Some f -> f.Storage.Footer.payload_length
          | None -> Storage.Device.length symbols
        in
        if sym_payload <> Bytes.length expected then begin
          Printf.eprintf
            "FAIL: symbols component holds %d bytes, database has %d\n"
            sym_payload (Bytes.length expected);
          exit 1
        end;
        let buf = Bytes.create (Bytes.length expected) in
        Storage.Device.pread symbols ~off:0 ~buf;
        if not (Bytes.equal buf expected) then begin
          Printf.eprintf "FAIL: symbols component differs from the FASTA\n";
          exit 1
        end;
        let pool = Storage.Buffer_pool.create ~block_size:2048 ~capacity:4096 in
        (* Open at footer strength when any checking is on; the Full
           structural walk runs below so every issue gets printed, not
           just the first. *)
        let verify =
          match level with
          | `Off -> Storage.Disk_tree.Off
          | `Footer | `Full -> Storage.Disk_tree.Footer
        in
        let dt =
          Storage.Disk_tree.open_ ~verify ~alphabet ~pool ~symbols ~internal
            ~leaves ()
        in
        (if level = `Full then
           match Storage.Disk_tree.check dt with
           | [] -> ()
           | issues ->
             List.iter
               (fun i ->
                 Printf.eprintf "FAIL: %s+%d: %s\n"
                   (Storage.Disk_tree.component_name
                      i.Storage.Disk_tree.component)
                   i.Storage.Disk_tree.offset i.Storage.Disk_tree.message)
               issues;
             exit 1);
        match Storage.Disk_tree.validate dt with
        | Ok () ->
          let r = Storage.Disk_tree.size_report dt in
          Printf.printf
            "OK: %s layout, %d internal entries, %d suffix positions, %.2f \
             bytes/symbol\n"
            (match Storage.Disk_tree.layout dt with
            | Storage.Disk_tree.Position_indexed -> "position-indexed"
            | Storage.Disk_tree.Clustered -> "clustered")
            (Storage.Disk_tree.internal_count dt)
            (Bioseq.Database.data_length db)
            r.Storage.Disk_tree.bytes_per_symbol
        | Error msg ->
          Printf.eprintf "FAIL: %s\n" msg;
          exit 1)
    end
  in
  let dir =
    Arg.(required & opt (some dir) None & info [ "index" ] ~docv:"DIR"
           ~doc:"Index directory to verify.")
  in
  let level =
    Arg.(value & opt level_conv `Full & info [ "level" ] ~docv:"LEVEL"
           ~doc:"Verification strength: off (header magics only), footer \
                 (per-component length + CRC-32), or full (footer plus the \
                 defensive structural walk and the semantic validator).")
  in
  Cmd.v
    (Cmd.info "verify-index"
       ~doc:"Check an on-disk index's integrity. A static index is checked \
             against its FASTA database (footers, CRCs, structure); a live \
             log-structured index prints a per-segment and journal health \
             table, failing only for non-recoverable states.")
    Term.(
      const run
      $ opt_fasta_arg
          ~doc:"FASTA database (static indexes only; a live index carries \
                its own sequences)."
          "db"
      $ alphabet_arg $ dir $ level)

(* --- stats --- *)

let stats_cmd =
  let run fasta alphabet =
    let seqs = Bioseq.Fasta.read_file ~alphabet fasta in
    let db = Bioseq.Database.make seqs in
    Printf.printf "sequences:       %d\n" (Bioseq.Database.num_sequences db);
    Printf.printf "symbols:         %d\n" (Bioseq.Database.total_symbols db);
    let lens =
      List.init (Bioseq.Database.num_sequences db) (fun i ->
          Bioseq.Sequence.length (Bioseq.Database.seq db i))
    in
    let sorted = List.sort compare lens in
    let n = List.length sorted in
    Printf.printf "lengths:         min %d / median %d / max %d\n"
      (List.nth sorted 0)
      (List.nth sorted (n / 2))
      (List.nth sorted (n - 1));
    let tree = Suffix_tree.Ukkonen.build db in
    let s = Suffix_tree.Tree.stats tree in
    Printf.printf "suffix tree:     %d internal nodes, %d leaves, depth %d\n"
      s.Suffix_tree.Tree.internal_nodes s.Suffix_tree.Tree.leaves
      s.Suffix_tree.Tree.max_depth;
    let dt, _ = Storage.Disk_tree.of_tree tree in
    let r = Storage.Disk_tree.size_report dt in
    Printf.printf "disk image:      %.2f bytes/symbol\n"
      r.Storage.Disk_tree.bytes_per_symbol;
    let freqs = Scoring.Background.of_database db in
    List.iter
      (fun matrix ->
        if
          Bioseq.Alphabet.name (Scoring.Submat.alphabet matrix)
          = Bioseq.Alphabet.name alphabet
        then
          match Scoring.Karlin.estimate ~matrix ~freqs () with
          | params ->
            Format.printf "karlin (%s): %a@." (Scoring.Submat.name matrix)
              Scoring.Karlin.pp_params params
          | exception Scoring.Karlin.Unsupported_matrix _ -> ())
      Scoring.Matrices.all
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Database, index and statistical parameters summary.")
    Term.(const run $ fasta_arg ~doc:"FASTA database." "db" $ alphabet_arg)

(* --- serve / client: the always-on daemon --- *)

let socket_arg =
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket path of the daemon.")

let serve_cmd =
  let run fasta alphabet index_dir socket workers queue_depth buffer_blocks
      allow_sleep =
    if workers < 1 then failwith "--workers must be >= 1";
    if queue_depth < 0 then failwith "--queue-depth must be >= 0";
    let load_db fasta =
      Bioseq.Database.make (Bioseq.Fasta.read_file ~alphabet fasta)
    in
    (* Same index dispatch as `oasis search`, but each backend is built
       once per worker and stays open across requests. *)
    let make_worker =
      match index_dir with
      | Some dir when Storage.Live_index.exists (Storage.Vfs.dir dir) ->
        fun _ -> Serve.Backend.live ~dir ~alphabet ()
      | Some dir ->
        let fasta =
          match fasta with
          | Some f -> f
          | None -> failwith "--db is required with a static --index"
        in
        let db = load_db fasta in
        if Storage.Shard_manifest.exists ~dir then fun _ ->
          Serve.Backend.sharded ~dir ~alphabet ~db ~buffer_blocks ()
        else fun _ -> Serve.Backend.disk ~dir ~alphabet ~db ~buffer_blocks ()
      | None ->
        let fasta =
          match fasta with
          | Some f -> f
          | None -> failwith "give --db or --index"
        in
        let db = load_db fasta in
        (* One immutable packed image serves every worker; each worker
           only owns an engine session (the reentrancy unit). The image
           is built straight from the database (no pointer tree), and
           the construction arrays are collected before the first
           request, so serving reuses their heap instead of growing
           past it. *)
        let image = Suffix_tree.Packed.build db in
        Gc.full_major ();
        fun _ -> Serve.Backend.packed ~image ~db ()
    in
    let cfg =
      Serve.Server.config ~workers ~queue_depth ~allow_sleep ~alphabet
        ~socket_path:socket ()
    in
    let server = Serve.Server.create cfg ~make_worker in
    Printf.printf "listening on %s (%d workers, queue depth %d)\n%!" socket
      workers queue_depth;
    Serve.Server.run server;
    Printf.printf "daemon stopped\n%!"
  in
  let workers =
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N"
           ~doc:"Worker domains serving queries concurrently.")
  in
  let queue_depth =
    Arg.(value & opt int 16 & info [ "queue-depth" ] ~docv:"N"
           ~doc:"Connections admitted beyond the running workers before \
                 the daemon answers with a typed overload reject.")
  in
  let buffer_blocks =
    Arg.(value & opt int 4096 & info [ "buffer-blocks" ] ~docv:"N"
           ~doc:"Per-worker buffer pool capacity in 2K blocks (disk \
                 indexes only; split across shards of a sharded index).")
  in
  let allow_sleep =
    Arg.(value & flag & info [ "allow-sleep" ]
           ~doc:"Honor the protocol's sleep verb, which holds a worker \
                 idle for a requested duration. Load-testing only.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the always-on search daemon on a Unix-domain socket: the \
             index stays open across requests, queries run concurrently on \
             a worker-domain pool, and hits stream to clients online (in \
             non-increasing score order), so a client can hang up at any \
             score threshold and the daemon aborts the remaining work.")
    Term.(
      const run
      $ opt_fasta_arg
          ~doc:"FASTA database (builds an in-memory index shared by all \
                workers; with a static --index it names the database the \
                index was built on)."
          "db"
      $ alphabet_arg
      $ Arg.(value & opt (some string) None & info [ "index" ] ~docv:"DIR"
               ~doc:"Serve an on-disk index directory (static, sharded, or \
                     live log-structured).")
      $ socket_arg $ workers $ queue_depth $ buffer_blocks $ allow_sleep)

let reject_to_string = function
  | Serve.Protocol.Overloaded { in_flight; capacity } ->
    Printf.sprintf "overloaded (%d in flight / capacity %d)" in_flight
      capacity
  | Serve.Protocol.Bad_request msg -> "bad request: " ^ msg
  | Serve.Protocol.Shutting_down -> "shutting down"
  | Serve.Protocol.Server_error msg -> "server error: " ^ msg

(* A reject is not a usage error: exit 3 so scripts (and the CI overload
   test) can tell a typed refusal from a failure. *)
let client_reject r =
  Printf.eprintf "oasis client: rejected: %s\n" (reject_to_string r);
  exit 3

let client_transport e =
  failwith ("daemon connection: " ^ Serve.Protocol.error_to_string e)

let client_search_cmd =
  let run socket query_text matrix gap_penalty gap_open min_score top
      max_columns max_nodes time_limit disconnect_after seed_cutoff =
    let gap =
      match gap_open with
      | None -> Serve.Protocol.Linear { penalty = gap_penalty }
      | Some open_cost ->
        Serve.Protocol.Affine { open_cost; extend_cost = gap_penalty }
    in
    let req =
      {
        Serve.Protocol.query = query_text;
        matrix = Scoring.Submat.name matrix;
        gap;
        min_score;
        max_hits = Some top;
        max_columns;
        max_expanded = max_nodes;
        time_limit;
        seed_cutoff;
      }
    in
    (* Hit lines print exactly as `oasis search --format plain` does, so
       the daemon e2e can diff the two streams byte for byte. *)
    let on_hit i (h : Serve.Protocol.hit) =
      Printf.printf "%4d. %-24s score %-5d (ends: query %d, target %d)\n" i
        h.seq_id h.score h.query_stop h.target_stop
    in
    match Serve.Client.search ?stop_after:disconnect_after ~path:socket
            ~on_hit req
    with
    | Serve.Client.Finished { outcome; _ } -> (
      match outcome with
      | Serve.Protocol.Exhausted { remaining_bound } ->
        Printf.printf "# budget exhausted: unreported hits score <= %d\n"
          remaining_bound
      | Serve.Protocol.Complete -> ())
    | Serve.Client.Cut n -> Printf.printf "# disconnected after %d hits\n" n
    | Serve.Client.Rejected r -> client_reject r
    | Serve.Client.Transport e -> client_transport e
  in
  let query =
    Arg.(required & opt (some string) None & info [ "query" ] ~docv:"SEQ"
           ~doc:"Query sequence (residues).")
  in
  let matrix =
    Arg.(value & opt matrix_conv Scoring.Matrices.pam30 & info [ "matrix" ]
           ~docv:"NAME" ~doc:"Substitution matrix.")
  in
  let gap =
    Arg.(value & opt int 10 & info [ "gap" ] ~docv:"G"
           ~doc:"Gap penalty per symbol (the extension cost when \
                 --gap-open is given).")
  in
  let gap_open =
    Arg.(value & opt (some int) None & info [ "gap-open" ] ~docv:"GO"
           ~doc:"Affine gap opening cost; switches to the affine model.")
  in
  let min_score =
    Arg.(value & opt int 1 & info [ "min-score" ] ~docv:"S"
           ~doc:"Minimum alignment score to report.")
  in
  let top =
    Arg.(value & opt int 25 & info [ "top" ] ~docv:"K"
           ~doc:"Stop after K results (they stream in best-first).")
  in
  let max_columns =
    Arg.(value & opt (some int) None & info [ "max-columns" ] ~docv:"N"
           ~doc:"Per-request budget: stop after N DP columns.")
  in
  let max_nodes =
    Arg.(value & opt (some int) None & info [ "max-nodes" ] ~docv:"N"
           ~doc:"Per-request budget: stop after N node expansions.")
  in
  let time_limit =
    Arg.(value & opt (some float) None & info [ "time-limit" ]
           ~docv:"SECONDS" ~doc:"Per-request wall-clock budget.")
  in
  let seed_cutoff =
    Arg.(value & flag & info [ "seed-cutoff" ]
           ~doc:"Ask the daemon to seed its prune cutoff with a fast BLAST \
                 first pass (exact for the --top-capped stream; see \
                 $(b,oasis search --seed-cutoff)).")
  in
  let disconnect_after =
    Arg.(value & opt (some int) None & info [ "disconnect-after" ] ~docv:"N"
           ~doc:"Hang up right after the N-th hit — the online protocol's \
                 early exit; the daemon aborts the remaining work.")
  in
  Cmd.v
    (Cmd.info "search" ~doc:"Stream a search from the daemon.")
    Term.(
      const run $ socket_arg $ query $ matrix $ gap $ gap_open $ min_score
      $ top $ max_columns $ max_nodes $ time_limit $ disconnect_after
      $ seed_cutoff)

let client_simple_cmd name doc req render =
  Cmd.v
    (Cmd.info name ~doc)
    Term.(
      const (fun socket ->
          match Serve.Client.request ~path:socket req with
          | Ok resp -> render resp
          | Error e -> client_transport e)
      $ socket_arg)

let client_render_pong = function
  | Serve.Protocol.Pong -> print_endline "pong"
  | Serve.Protocol.Reject r -> client_reject r
  | _ -> failwith "unexpected daemon response"

let client_cmd =
  let stats =
    client_simple_cmd "stats"
      "Print the daemon's SLO counters and latency quantiles." Serve.Protocol.Stats
      (function
        | Serve.Protocol.Stats_reply items ->
          List.iter (fun (k, v) -> Printf.printf "%-28s %d\n" k v) items
        | Serve.Protocol.Reject r -> client_reject r
        | _ -> failwith "unexpected daemon response")
  in
  let ping = client_simple_cmd "ping" "Check the daemon is alive."
      Serve.Protocol.Ping client_render_pong
  in
  let shutdown =
    client_simple_cmd "shutdown"
      "Ask the daemon to stop (in-flight requests drain first)."
      Serve.Protocol.Shutdown (function
      | Serve.Protocol.Pong -> print_endline "shutdown requested"
      | Serve.Protocol.Reject r -> client_reject r
      | _ -> failwith "unexpected daemon response")
  in
  let sleep =
    let run socket ms =
      match Serve.Client.request ~path:socket (Serve.Protocol.Sleep ms) with
      | Ok Serve.Protocol.Pong -> ()
      | Ok (Serve.Protocol.Reject r) -> client_reject r
      | Ok _ -> failwith "unexpected daemon response"
      | Error e -> client_transport e
    in
    let ms =
      Arg.(value & opt int 1000 & info [ "ms" ] ~docv:"MS"
             ~doc:"How long to hold the worker.")
    in
    Cmd.v
      (Cmd.info "sleep"
         ~doc:"Hold a daemon worker idle (needs a daemon started with \
               --allow-sleep). Load-testing only.")
      Term.(const run $ socket_arg $ ms)
  in
  Cmd.group
    (Cmd.info "client" ~doc:"Talk to a running search daemon.")
    [ client_search_cmd; stats; ping; shutdown; sleep ]

let () =
  let doc = "accurate online local-alignment search (OASIS, VLDB 2003)" in
  let cmd =
    Cmd.group (Cmd.info "oasis" ~version:"1.0.0" ~doc)
      [
        generate_cmd;
        index_cmd;
        append_cmd;
        compact_cmd;
        search_cmd;
        batch_cmd;
        compare_cmd;
        verify_index_cmd;
        stats_cmd;
        serve_cmd;
        client_cmd;
      ]
  in
  (* Expected failures print one clean line, not a backtrace. *)
  try exit (Cmd.eval ~catch:false cmd) with
  | Storage.Io_error info ->
    Printf.eprintf "oasis: %s\n" (Storage.Io_error.to_string info);
    exit 2
  | Storage.Disk_tree.Corrupt { component; message } ->
    Printf.eprintf "oasis: corrupt index (%s component): %s\n" component
      message;
    exit 2
  | Storage.Shard_manifest.Corrupt message ->
    Printf.eprintf "oasis: corrupt index (shard manifest): %s\n" message;
    exit 2
  | Storage.Segment_log.Corrupt message ->
    Printf.eprintf "oasis: corrupt index (segment log): %s\n" message;
    exit 2
  | Storage.Catalog.Corrupt message ->
    Printf.eprintf "oasis: corrupt index (catalog): %s\n" message;
    exit 2
  | Failure msg | Invalid_argument msg ->
    Printf.eprintf "oasis: %s\n" msg;
    exit 2
