(* Worker-owned index state. The server keeps one [worker] per pool
   worker for its whole lifetime; everything per-request lives in the
   [stream] the worker hands back. *)

type stream = {
  next : unit -> Oasis.Hit.t option;
  outcome : unit -> Oasis.Engine.outcome;
  seq_id : int -> string;
  finish : unit -> unit;
}

type worker = {
  search :
    query:Bioseq.Sequence.t ->
    config:Oasis.Engine.config ->
    seed:int option ->
    stream;
  close : unit -> unit;
}

let parse ~alphabet (s : Protocol.search) =
  match
    let matrix =
      match Scoring.Matrices.by_name s.matrix with
      | Some m -> m
      | None ->
        failwith
          (Printf.sprintf "unknown matrix %S (available: %s)" s.matrix
             (String.concat ", "
                (List.map Scoring.Submat.name Scoring.Matrices.all)))
    in
    let gap =
      match s.gap with
      | Protocol.Linear { penalty } -> Scoring.Gap.linear penalty
      | Protocol.Affine { open_cost; extend_cost } ->
        Scoring.Gap.affine ~open_cost ~extend_cost
    in
    if s.min_score < 1 then failwith "min_score must be >= 1";
    (match s.max_hits with
    | Some n when n < 0 -> failwith "max_hits must be >= 0"
    | _ -> ());
    (* Seeding raises the cutoff to the heuristic k-th best score,
       which is only monotone-safe for a stream capped at k hits. *)
    if s.seed_cutoff && s.max_hits = None then
      failwith "seed_cutoff requires max_hits (it is only exact for a capped \
                stream)";
    let seed = if s.seed_cutoff then s.max_hits else None in
    let budget =
      Oasis.Engine.budget ?max_columns:s.max_columns
        ?max_expanded:s.max_expanded ?time_limit:s.time_limit ()
    in
    let query = Bioseq.Sequence.make ~alphabet ~id:"query" s.query in
    if Bioseq.Sequence.length query = 0 then failwith "empty query";
    let config =
      Oasis.Engine.config ~matrix ~gap ~min_score:s.min_score ~budget ()
    in
    (query, config, s.max_hits, seed)
  with
  | v -> Ok v
  | exception Failure msg -> Error msg
  | exception Invalid_argument msg -> Error msg

let db_seq_id db i = Bioseq.Sequence.id (Bioseq.Database.seq db i)

(* Cutoff seeding (see [Blast.Seed]): one heuristic pass over the
   worker's database(s); the k-th best heuristic score lower-bounds the
   true k-th best, so raising [min_score] to it leaves the capped
   stream bit-identical. [dbs] lets the live backend seed across its
   snapshot parts — only scores matter, so no index globalization is
   needed. *)
let seeded_config ~dbs ~query ~seed (config : Oasis.Engine.config) =
  match seed with
  | None -> config
  | Some k when k < 1 -> config
  | Some k ->
    let freqs =
      match dbs with
      | db :: _ -> Scoring.Background.of_database db
      | [] -> invalid_arg "Backend.seeded_config: no databases"
    in
    (match Scoring.Karlin.estimate ~matrix:config.matrix ~freqs () with
    | exception Scoring.Karlin.Unsupported_matrix _ -> config
    | params ->
      let bcfg =
        if Bioseq.Alphabet.size (Bioseq.Sequence.alphabet query) <= 4 then
          Blast.Search.default_dna ~matrix:config.matrix ~gap:config.gap
            ~params ()
        else
          Blast.Search.default_protein ~matrix:config.matrix ~gap:config.gap
            ~params ()
      in
      let scores =
        List.concat_map
          (fun db ->
            List.map
              (fun (h : Blast.Search.hit) -> h.score)
              (fst (Blast.Search.search bcfg ~query ~db)))
          dbs
      in
      let sorted = List.sort (fun a b -> compare (b : int) a) scores in
      match List.nth_opt sorted (k - 1) with
      | Some s when s > config.min_score -> { config with min_score = s }
      | _ -> config)

(* --- in-memory: one shared packed image, one session per worker --- *)

let packed ~image ~db () =
  let session = Oasis.Engine.Packed.Session.create () in
  let search ~query ~config ~seed =
    let config = seeded_config ~dbs:[ db ] ~query ~seed config in
    let engine =
      Oasis.Engine.Packed.create ~session ~source:image ~db ~query config
    in
    {
      next = (fun () -> Oasis.Engine.Packed.next engine);
      outcome = (fun () -> Oasis.Engine.Packed.outcome engine);
      seq_id = db_seq_id db;
      finish = ignore;
    }
  in
  { search; close = ignore }

let mem ~tree ~db () = packed ~image:(Suffix_tree.Packed.of_tree tree) ~db ()

(* --- on-disk: a private tree handle (the buffer pool is
   single-owner) opened once and kept hot across requests --- *)

let index_files dir =
  ( Filename.concat dir "symbols.dat",
    Filename.concat dir "internal.dat",
    Filename.concat dir "leaves.dat" )

let open_disk_tree ~alphabet ~dir ~buffer_blocks =
  let sym_p, int_p, leaf_p = index_files dir in
  let symbols = Storage.Device.open_file sym_p
  and internal = Storage.Device.open_file int_p
  and leaves = Storage.Device.open_file leaf_p in
  let pool =
    Storage.Buffer_pool.create ~block_size:2048 ~capacity:buffer_blocks
  in
  let tree = Storage.Disk_tree.open_ ~alphabet ~pool ~symbols ~internal ~leaves () in
  let close () = List.iter Storage.Device.close [ symbols; internal; leaves ] in
  (tree, close)

let disk ~dir ~alphabet ~db ~buffer_blocks () =
  let tree, close = open_disk_tree ~alphabet ~dir ~buffer_blocks in
  let session = Oasis.Engine.Disk.Session.create () in
  let search ~query ~config ~seed =
    let config = seeded_config ~dbs:[ db ] ~query ~seed config in
    let engine =
      Oasis.Engine.Disk.create ~session ~source:tree ~db ~query config
    in
    {
      next = (fun () -> Oasis.Engine.Disk.next engine);
      outcome = (fun () -> Oasis.Engine.Disk.outcome engine);
      seq_id = db_seq_id db;
      finish = ignore;
    }
  in
  { search; close }

(* --- sharded on-disk: every shard's tree open in this worker,
   searched through the demand-driven Multi merge (identical release
   rule to the multicore coordinator, so identical streams) --- *)

let multi_stream ~parts ~seq_id ~query ~config ~finish =
  let m = Oasis.Multi.create ~parts ~query config in
  {
    next = (fun () -> Oasis.Multi.next m);
    outcome = (fun () -> Oasis.Multi.outcome m);
    seq_id;
    finish;
  }

let sharded ~dir ~alphabet ~db ~buffer_blocks () =
  let entries = Storage.Shard_manifest.load ~dir in
  let k = Array.length entries in
  let per_shard_blocks = max 16 (buffer_blocks / max 1 k) in
  let closers = ref [] in
  let parts =
    Array.mapi
      (fun i (e : Storage.Shard_manifest.entry) ->
        let tree, close =
          open_disk_tree ~alphabet
            ~dir:(Storage.Shard_manifest.shard_dir dir i)
            ~buffer_blocks:per_shard_blocks
        in
        closers := close :: !closers;
        let seqs =
          List.init e.num_seqs (fun j ->
              Bioseq.Database.seq db (e.first_seq + j))
        in
        Oasis.Multi.Disk
          { tree; db = Bioseq.Database.make seqs; first_seq = e.first_seq })
      entries
  in
  let search ~query ~config ~seed =
    let config = seeded_config ~dbs:[ db ] ~query ~seed config in
    multi_stream ~parts ~seq_id:(db_seq_id db) ~query ~config ~finish:ignore
  in
  { search; close = (fun () -> List.iter (fun f -> f ()) !closers) }

(* --- live log-structured index: pin a snapshot per request, so the
   search sees a consistent segment set while appends continue --- *)

let parts_seq_id parts i =
  (* Parts are in increasing first_seq order; find the owning part. *)
  let n = Array.length parts in
  let first_seq = function
    | Oasis.Multi.Mem p -> p.first_seq
    | Oasis.Multi.Disk p -> p.first_seq
  in
  let rec owner j =
    if j + 1 < n && first_seq parts.(j + 1) <= i then owner (j + 1) else j
  in
  let j = owner 0 in
  match parts.(j) with
  | Oasis.Multi.Mem p -> db_seq_id p.db (i - p.first_seq)
  | Oasis.Multi.Disk p -> db_seq_id p.db (i - p.first_seq)

let live ~dir ~alphabet () =
  let t, _recovery = Storage.Live_index.open_ ~alphabet (Storage.Vfs.dir dir) in
  let search ~query ~config ~seed =
    let snap = Storage.Live_index.snapshot t in
    let release () = Storage.Live_index.release t snap in
    match Oasis.Multi.parts_of_snapshot snap with
    | [||] ->
      release ();
      {
        next = (fun () -> None);
        outcome = (fun () -> Oasis.Engine.Complete);
        seq_id = (fun _ -> "?");
        finish = ignore;
      }
    | parts ->
      (match
         let dbs =
           Array.to_list
             (Array.map
                (function
                  | Oasis.Multi.Mem p -> p.db
                  | Oasis.Multi.Disk p -> p.db)
                parts)
         in
         let config = seeded_config ~dbs ~query ~seed config in
         multi_stream ~parts ~seq_id:(parts_seq_id parts) ~query ~config
           ~finish:release
       with
      | s -> s
      | exception e ->
        release ();
        raise e)
  in
  { search; close = (fun () -> Storage.Live_index.close t) }
