(** The flat construction store: a suffix tree under construction as
    parallel [int] arrays (label start and stop, first child, next
    sibling, suffix link, and a position chain), one slot per node.

    {!Ukkonen.Make} runs over it (it matches {!Ukkonen.STORE}) for both
    in-memory builds: {!Ukkonen.build} converts the result to a pointer
    tree with {!to_tree}, and {!Packed.build} packs it. Building here
    allocates no per-node heap record, so the collector has nothing to
    trace or promote while the phase loop runs.

    The arrays start at an estimate of the final node count taken from
    the database's symbol entropy and grow by a quarter when it falls
    short. *)

type t

type node = int
(** Node index; the root is [0]. *)

val create : Bioseq.Database.t -> t
(** An empty tree (the root alone) sized for [db]. *)

val estimate_nodes : Bioseq.Database.t -> int
(** The initial node capacity {!create} allocates for [db]. *)

val nodes : t -> int
(** Nodes so far, the root included. *)

val leaves : t -> int

(** {1 The node-store operations} *)

val database : t -> Bioseq.Database.t
val root : t -> node
val is_leaf : t -> node -> bool
val find_child : t -> data:bytes -> node -> int -> node option
val add_child : t -> node -> node -> unit
val replace_child : t -> node -> old_child:node -> new_child:node -> unit
val make_leaf : t -> start:int -> stop:int -> position:int -> node
val make_internal : t -> start:int -> stop:int -> node
val start : t -> node -> int
val stop : t -> node -> int
val set_start : t -> node -> int -> unit
val suffix_link : t -> node -> node option
val set_suffix_link : t -> node -> node -> unit
val add_position : t -> node -> int -> unit

val iter_children : t -> node -> (node -> unit) -> unit
(** In sibling order. *)

val iter_positions : t -> node -> (int -> unit) -> unit
(** A leaf's suffix positions, the most recently recorded first. *)

val to_tree : t -> Tree.t
(** The same tree as {!Node} records: same sibling order, labels,
    suffix links and position lists as the pointer store would have
    built from the same calls. The store is not needed afterwards. *)
