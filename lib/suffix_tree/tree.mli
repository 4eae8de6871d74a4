(** Generalized suffix trees over a {!Bioseq.Database} (§2.3).

    A compact (PATRICIA) trie of every suffix of every database
    sequence. Each leaf carries the global start position(s) of the
    suffix it represents — several positions when identical suffixes
    occur in different sequences. Construction lives in {!Ukkonen} and
    {!Partitioned}; this module is the read-only view plus a naive
    insertion primitive shared by the builders. *)

type t

type node = Node.t
(** Node handles are only meaningful with the tree they came from. *)

(** {1 Basic accessors} *)

val database : t -> Bioseq.Database.t
val root : t -> node
val is_leaf : node -> bool
val children : node -> node list
val iter_children : node -> (node -> unit) -> unit

val gather_children :
  t -> node -> (node -> start:int -> stop:int -> sym:int -> unit) -> unit
(** Children in the canonical search order — internal children first,
    then leaves, each run in sibling order (the partition {!Export}
    lays out on disk) — with each child's label range and first symbol
    code delivered in one fused pass over the sibling links. [sym] is
    [-1] for an empty label. The search engines' expansion path uses
    this: one callback per child replaces a handful of per-child
    accessor calls. *)

val label : node -> int * int
(** Global range [ [start, stop) ) of the incoming edge label. *)

val label_start : node -> int
val label_stop : node -> int
(** The components of {!label} without the tuple — the search engine's
    per-child hot path reads these to stay allocation-free. *)

val positions : node -> int list
(** Suffix start positions; non-empty exactly for leaves. *)

val path_length : t -> node -> int
(** Number of symbols on the root-to-node path. O(depth). *)

val path_string : t -> node -> string
(** Decoded root-to-node path, terminators as ['$'] (for debugging). *)

(** {1 Queries} *)

val find_exact : t -> bytes -> int list
(** [find_exact t pattern] is the sorted list of global positions where
    the encoded [pattern] occurs as a substring (§2.3.1: walk the
    pattern from the root, then collect leaf descendants). *)

val subtree_positions : node -> int list
(** All suffix start positions under a node (unsorted). *)

(** {1 Whole-tree iteration and checks} *)

val fold : t -> init:'a -> f:('a -> depth:int -> node -> 'a) -> 'a
(** Depth-first pre-order over all nodes except the root; [depth] is the
    path length to the node's parent. *)

type stats = {
  internal_nodes : int;
  leaves : int;
  occurrences : int;  (** total leaf positions; equals #suffixes *)
  max_depth : int;  (** deepest path length in symbols *)
}

val stats : t -> stats

val validate : t -> (unit, string) result
(** Structural invariants: every edge label is a valid range within one
    sequence region; internal nodes have >= 2 children; sibling edges
    start with distinct symbols; suffix links drop exactly one leading
    symbol; every database suffix is reachable and leaf occurrence
    counts add up. O(total suffix length) plus a quadratic
    suffix-link pass — test use. *)

(** {1 Construction primitives (used by the builders)} *)

val create : Bioseq.Database.t -> t
(** A tree containing only the root. *)

val with_database : t -> Bioseq.Database.t -> t
(** [with_database t db] is the same tree structure viewed over a larger
    database. [db]'s concatenation must extend the old one (checked):
    every existing edge label and leaf position keeps its meaning. Used
    by incremental construction ({!Ukkonen.extend}); the old handle must
    not be used afterwards, since both share the mutable nodes. *)
