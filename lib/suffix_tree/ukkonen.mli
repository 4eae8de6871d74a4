(** Online linear-time suffix tree construction (Ukkonen 1992).

    The generalized tree over a multi-sequence database is built by
    running Ukkonen's algorithm once per sequence into a shared tree,
    resetting the active point between sequences. Suffixes of a later
    sequence that already exist verbatim in the tree remain implicit at
    the end of that sequence's pass; they are resolved by appending
    their start positions to the existing leaves, so every database
    suffix is represented exactly once.

    The construction is written once, as {!Make}, over a small
    node-store signature, and instantiated twice. {!build} and
    {!Packed.build} run it over the flat [int] arrays of {!Flat}, then
    convert the result to {!Node} records or pack it; {!extend} and
    {!insert_suffix_naive} run it over the records of an existing
    {!Tree} ({!Pointer}). *)

(** What the construction needs from a node store. Children form a
    singly-linked sibling list: [add_child] prepends, [replace_child]
    substitutes in place, so two stores fed the same calls end with the
    same sibling order. *)
module type STORE = sig
  type t
  type node

  val database : t -> Bioseq.Database.t
  val root : t -> node

  val find_child : t -> data:bytes -> node -> int -> node option
  (** The child whose edge label begins with symbol code [code] ([data]
      is the database's symbol buffer). *)

  val add_child : t -> node -> node -> unit
  (** Prepend a child to the parent's sibling list. *)

  val replace_child : t -> node -> old_child:node -> new_child:node -> unit
  (** Put [new_child] in [old_child]'s place in the sibling list. *)

  val make_leaf : t -> start:int -> stop:int -> position:int -> node
  val make_internal : t -> start:int -> stop:int -> node

  val start : t -> node -> int
  (** Global start of the node's incoming edge label. *)

  val stop : t -> node -> int
  (** One past the label's last symbol. *)

  val set_start : t -> node -> int -> unit
  val suffix_link : t -> node -> node option
  val set_suffix_link : t -> node -> node -> unit

  val add_position : t -> node -> int -> unit
  (** Record one more suffix occurrence on a leaf (it then lists it
      first). *)
end

module Make (S : STORE) : sig
  val build_sequence : S.t -> int -> unit
  (** Run Ukkonen's phases for one sequence (by index in the store's
      database) into the store. Sequences must be added in order. *)
end

module Pointer : sig
  val build_sequence : Tree.t -> int -> unit
end
(** The construction over {!Node} records, in place in a {!Tree}: what
    {!extend} runs. Running it for every sequence of [db] on
    [Tree.create db] gives the same tree as {!build}. *)

val build_flat : Bioseq.Database.t -> Flat.t
(** The whole database built in the flat store. *)

val build : Bioseq.Database.t -> Tree.t
(** O(total database length) expected; worst case adds the cost of the
    duplicate-suffix walks. Built by {!build_flat} and converted with
    {!Flat.to_tree}. *)

val extend : Tree.t -> Bioseq.Database.t -> Tree.t
(** [extend tree db] incrementally indexes the sequences [db] adds on
    top of [tree]'s database (built with {!Bioseq.Database.append}) —
    the paper's §6 "incremental updates" future work, for the in-memory
    tree. Cost is proportional to the added length only. The input
    [tree] shares nodes with the result and must not be used
    afterwards. *)

val insert_suffix_naive : Tree.t -> int -> unit
(** [insert_suffix_naive t pos] inserts the suffix starting at global
    position [pos] (running to its sequence's terminator) by walking
    from the root — O(suffix length). A duplicate suffix adds [pos] to
    the existing leaf. {!Make} resolves a sequence's leftover implicit
    suffixes this way; the prefix-partitioned and external builders
    insert every suffix this way. *)
