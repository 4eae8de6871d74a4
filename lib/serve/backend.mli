(** Per-worker search backends for the daemon.

    A {!worker} is the serving layer's unit of index ownership: the
    server creates one per pool worker at startup and keeps it open
    across requests, so steady-state queries touch no index-opening
    path at all. What a worker owns depends on the index:

    - {!packed} (and its adapter {!mem}): nothing but an
      {!Oasis.Engine.Packed} session — all workers share ONE immutable
      {!Suffix_tree.Packed} image, read-only after its build, which is
      the point of the session refactor: K concurrent searches, one
      image;
    - {!disk} / {!sharded}: a private {!Storage.Disk_tree} (and buffer
      pool) per worker, because the buffer pool is single-owner by
      design — replicating the handle, not the data;
    - {!live}: a private read-only {!Storage.Live_index} handle; each
      request pins its own snapshot, so searches see a consistent
      segment set even while another process appends.

    Workers are single-owner and not thread-safe; the server hands each
    running task exclusive use of one. *)

type stream = {
  next : unit -> Oasis.Hit.t option;
  outcome : unit -> Oasis.Engine.outcome;
  seq_id : int -> string;  (** resolve a hit's sequence id *)
  finish : unit -> unit;  (** always called once the stream is done *)
}

type worker = {
  search :
    query:Bioseq.Sequence.t ->
    config:Oasis.Engine.config ->
    seed:int option ->
    stream;
      (** [seed = Some k] runs one heuristic BLAST pass first and
          raises the engine's cutoff to its k-th best score (see
          {!Blast.Seed}) — exact for a stream capped at [k] hits *)
  close : unit -> unit;
}

val parse :
  alphabet:Bioseq.Alphabet.t ->
  Protocol.search ->
  ( Bioseq.Sequence.t * Oasis.Engine.config * int option * int option,
    string )
  result
(** Validate a wire request into an engine configuration (the first
    [int option] is the hit cap, the second the seeding [k] — [Some]
    exactly when the request set [seed_cutoff], in which case a hit cap
    is required). Every failure — unknown matrix, bad residue,
    non-positive [min_score], negative budget, uncapped [seed_cutoff]
    — comes back as a message for a [Bad_request] reject, never an
    exception. *)

val packed :
  image:Suffix_tree.Packed.t -> db:Bioseq.Database.t -> unit -> worker
(** Searches [image] with {!Oasis.Engine.Packed}. Pass every worker the
    same image ([oasis serve --db] builds one with
    {!Suffix_tree.Packed.build}); [db] must be the database it was built
    on. *)

val mem : tree:Suffix_tree.Tree.t -> db:Bioseq.Database.t -> unit -> worker
(** [packed ~image:(Suffix_tree.Packed.of_tree tree)]: packs [tree] on
    every call, so build the image once and use {!packed} to share it
    across workers. *)

val disk :
  dir:string ->
  alphabet:Bioseq.Alphabet.t ->
  db:Bioseq.Database.t ->
  buffer_blocks:int ->
  unit ->
  worker
(** Opens [dir]'s components immediately and keeps them open. *)

val sharded :
  dir:string ->
  alphabet:Bioseq.Alphabet.t ->
  db:Bioseq.Database.t ->
  buffer_blocks:int ->
  unit ->
  worker
(** One {!Storage.Disk_tree} per manifest shard, searched through the
    demand-driven {!Oasis.Multi} merge — same release rule as the
    multicore coordinator, so the stream is identical to [oasis
    search]'s sharded path. [buffer_blocks] is split across shards. *)

val live : dir:string -> alphabet:Bioseq.Alphabet.t -> unit -> worker
(** Read-only live-index worker; an empty index yields an empty
    [Complete] stream. *)
