(** A flat, array-packed read-only image of a suffix tree.

    {!Tree} keeps one heap record per node, linked by sibling pointers:
    expanding a node means chasing 56-byte records scattered across the
    heap — at database scale the pointer walk, not the DP, dominates
    the search engines' expansion phase. This module re-lays the tree
    out once into a handful of flat [int] arrays, in the canonical
    child order (internal children first, then leaves — the order
    {!Export} writes and the search engines iterate):

    - every node's children occupy one contiguous run of the child
      arrays, so gathering a sibling block is a sequential scan with
      the first label symbol pre-resolved;
    - node handles are plain integers (non-negative = internal index,
      negative = leaf index), so search frontiers hold no pointers into
      the node heap and the GC never scans them;
    - every node's subtree leaves form one contiguous index range, so
      enumerating the suffix positions below a node is a flat slice
      scan instead of a recursive list walk.

    The packing is built once per database ({!build}, or {!of_tree} from
    a pointer tree; linear time and space) and shared read-only by any
    number of concurrent searches, exactly like the tree it mirrors. *)

type t

type node = int
(** Non-negative: internal-node index ({!root} is [0]). Negative: a
    leaf, encoded as [lnot leaf_index]. Handles are only meaningful
    with the packing they came from. *)

val of_tree : Tree.t -> t
(** Pack [tree]. The packing borrows the tree's database (it copies no
    symbol data); later in-place growth of the underlying tree is not
    reflected — pack again after an append. *)

val build : Bioseq.Database.t -> t
(** Build the packing straight from [db], without the pointer tree:
    {!Ukkonen.build_flat} runs the construction over the flat [int]
    arrays of {!Flat}, which one preorder pass then packs. The result
    is identical, array for array, to [of_tree (Ukkonen.build db)] —
    same sibling order, same handles — so engine hit streams are too.
    The construction arrays are garbage once [build] returns; a
    long-lived caller that cares about its peak heap collects them
    ([Gc.full_major]) before serving. *)

val database : t -> Bioseq.Database.t
val root : t -> node
val is_leaf : node -> bool
val internal_nodes : t -> int
val leaves : t -> int

val label_start : t -> node -> int
(** Global start of the incoming edge label; [-1] at the root. *)

val label_stop : t -> node -> int
(** One past the label's last symbol; [0] at the root. Leaf labels end
    with their sequence terminator, as in {!Tree}. *)

val num_children : t -> node -> int

val iter_children : t -> node -> (node -> unit) -> unit
(** Children in canonical order (internal first, then leaves). *)

val gather_children :
  t -> node -> (node -> start:int -> stop:int -> sym:int -> unit) -> unit
(** {!iter_children} fused with each child's label range and first
    symbol code — one sequential scan of the child arrays. [sym] is
    [-1] for an empty label (never produced by {!of_tree} on a valid
    tree). *)

val iter_positions : t -> node -> (int -> unit) -> unit
(** Suffix start positions of all leaf occurrences below the node: a
    contiguous slice scan. Order is the packing's leaf DFS order. *)
