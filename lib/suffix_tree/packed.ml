type t = {
  db : Bioseq.Database.t;
  (* Internal node [i]: label [node_start.(i), node_stop.(i)), children
     in the child arrays at [ch_off.(i) .. ch_off.(i+1) - 1], subtree
     leaves [leaf_lo.(i) .. leaf_hi.(i) - 1]. *)
  node_start : int array;
  node_stop : int array;
  ch_off : int array;
  leaf_lo : int array;
  leaf_hi : int array;
  (* Child slot [k]: handle, label range and first symbol code of one
     child, runs stored in canonical order (internal first, then
     leaves, each in sibling order). *)
  c_handle : int array;
  c_start : int array;
  c_stop : int array;
  c_sym : int array;
  (* Leaf [l]: label [leaf_start.(l), leaf_stop.(l)), suffix positions
     at [pos.(pos_off.(l) .. pos_off.(l+1) - 1)]. Leaves are numbered
     in DFS order, so a subtree's positions are one contiguous run. *)
  leaf_start : int array;
  leaf_stop : int array;
  pos_off : int array;
  pos : int array;
}

type node = int

let database t = t.db
let root _ = 0
let is_leaf (n : node) = n < 0
let internal_nodes t = Array.length t.node_start
let leaves t = Array.length t.leaf_start

let label_start t n = if n >= 0 then t.node_start.(n) else t.leaf_start.(lnot n)
let label_stop t n = if n >= 0 then t.node_stop.(n) else t.leaf_stop.(lnot n)
let num_children t n = if n < 0 then 0 else t.ch_off.(n + 1) - t.ch_off.(n)

let iter_children t n f =
  if n >= 0 then
    for k = t.ch_off.(n) to t.ch_off.(n + 1) - 1 do
      f t.c_handle.(k)
    done

let gather_children t n f =
  if n >= 0 then begin
    let handle = t.c_handle
    and start = t.c_start
    and stop = t.c_stop
    and sym = t.c_sym in
    for k = t.ch_off.(n) to t.ch_off.(n + 1) - 1 do
      f
        (Array.unsafe_get handle k)
        ~start:(Array.unsafe_get start k)
        ~stop:(Array.unsafe_get stop k)
        ~sym:(Array.unsafe_get sym k)
    done
  end

let iter_positions t n f =
  let lo, hi =
    if n < 0 then
      let l = lnot n in
      (l, l + 1)
    else (t.leaf_lo.(n), t.leaf_hi.(n))
  in
  for p = t.pos_off.(lo) to t.pos_off.(hi) - 1 do
    f t.pos.(p)
  done

(* What packing reads from a built tree: the pointer tree ({!of_tree})
   and the flat construction store ({!build}) both provide it. *)
module type VIEW = sig
  type t
  type node

  val root : t -> node
  val is_leaf : t -> node -> bool
  val start : t -> node -> int
  val stop : t -> node -> int
  val iter_children : t -> node -> (node -> unit) -> unit
  val iter_positions : t -> node -> (int -> unit) -> unit
end

module Pack (V : VIEW) = struct
  (* One preorder DFS in canonical child order (internal children first,
     then leaves). Internal ids and leaf numbers are assigned at visit
     time, so every subtree occupies one contiguous range of both. Each
     stack item carries the child slot its handle backpatches ([-1] for
     the root). An explicit stack keeps degenerate (path-shaped) trees
     from overflowing native recursion. *)
  let pack db v ~internal:ni ~leaves:nl ~positions:np =
    let data = Bioseq.Database.data db in
    let slots = ni - 1 + nl in
    let p =
      {
        db;
        node_start = Array.make ni 0;
        node_stop = Array.make ni 0;
        ch_off = Array.make (ni + 1) 0;
        leaf_lo = Array.make ni 0;
        leaf_hi = Array.make ni 0;
        c_handle = Array.make (max slots 1) 0;
        c_start = Array.make (max slots 1) 0;
        c_stop = Array.make (max slots 1) 0;
        c_sym = Array.make (max slots 1) 0;
        leaf_start = Array.make (max nl 1) 0;
        leaf_stop = Array.make (max nl 1) 0;
        pos_off = Array.make (nl + 1) 0;
        pos = Array.make (max np 1) 0;
      }
    in
    let next_internal = ref 0
    and next_leaf = ref 0
    and next_slot = ref 0
    and next_pos = ref 0 in
    let stack = ref [ (V.root v, -1) ] in
    let pack_leaf n slot =
      let l = !next_leaf in
      incr next_leaf;
      p.leaf_start.(l) <- V.start v n;
      p.leaf_stop.(l) <- V.stop v n;
      p.pos_off.(l) <- !next_pos;
      V.iter_positions v n (fun q ->
          p.pos.(!next_pos) <- q;
          incr next_pos);
      if slot >= 0 then p.c_handle.(slot) <- lnot l
    in
    let continue = ref true in
    while !continue do
      match !stack with
      | [] -> continue := false
      | (n, slot) :: rest ->
        stack := rest;
        if V.is_leaf v n then pack_leaf n slot
        else begin
          let i = !next_internal in
          incr next_internal;
          if slot >= 0 then p.c_handle.(slot) <- i;
          p.node_start.(i) <- V.start v n;
          p.node_stop.(i) <- V.stop v n;
          p.leaf_lo.(i) <- !next_leaf;
          (* Reserve this node's child run and queue the children. The
             run is filled back to front while pushing, so the canonical
             order pops (and packs) first. *)
          let internals = ref [] and leafs = ref [] and count = ref 0 in
          V.iter_children v n (fun c ->
              incr count;
              if V.is_leaf v c then leafs := c :: !leafs
              else internals := c :: !internals);
          let first_slot = !next_slot in
          next_slot := first_slot + !count;
          p.ch_off.(i) <- first_slot;
          let fill = ref (first_slot + !count - 1) in
          let queue c =
            let slot = !fill in
            decr fill;
            let start = V.start v c in
            p.c_start.(slot) <- start;
            p.c_stop.(slot) <- V.stop v c;
            p.c_sym.(slot) <-
              (if start < V.stop v c then Char.code (Bytes.unsafe_get data start)
               else -1);
            stack := (c, slot) :: !stack
          in
          (* [internals]/[leafs] are already reversed sibling runs, so
             queueing leaves first then internals pushes the exact
             reverse of canonical order. *)
          List.iter queue !leafs;
          List.iter queue !internals
        end
    done;
    p.ch_off.(ni) <- !next_slot;
    p.pos_off.(nl) <- !next_pos;
    (* [leaf_hi]: every internal node's subtree is a contiguous id range
       and children have larger ids than their parent in preorder, so a
       right-to-left sweep takes each node's [leaf_hi] as the max over
       its child run. *)
    for i = ni - 1 downto 0 do
      let hi = ref p.leaf_lo.(i) in
      for k = p.ch_off.(i) to p.ch_off.(i + 1) - 1 do
        let h = p.c_handle.(k) in
        let child_hi = if h < 0 then lnot h + 1 else p.leaf_hi.(h) in
        if child_hi > !hi then hi := child_hi
      done;
      p.leaf_hi.(i) <- !hi
    done;
    p
end

module Pack_tree = Pack (struct
  type t = Tree.t
  type node = Node.t

  let root = Tree.root
  let is_leaf _ n = Node.is_leaf n
  let start _ (n : node) = n.Node.start
  let stop _ (n : node) = n.Node.stop
  let iter_children _ n f = Node.iter_children n f
  let iter_positions _ (n : node) f = List.iter f n.Node.positions
end)

let of_tree tree =
  (* Count internals, leaves and positions first (explicit stack, as in
     the packing pass). *)
  let ni = ref 0 and nl = ref 0 and np = ref 0 in
  let stack = ref [ Tree.root tree ] in
  let continue = ref true in
  while !continue do
    match !stack with
    | [] -> continue := false
    | n :: rest ->
      stack := rest;
      if Node.is_leaf n then begin
        incr nl;
        np := !np + List.length n.Node.positions
      end
      else begin
        incr ni;
        Node.iter_children n (fun c -> stack := c :: !stack)
      end
  done;
  Pack_tree.pack (Tree.database tree) tree ~internal:!ni ~leaves:!nl
    ~positions:!np

module Pack_flat = Pack (Flat)

let build db =
  let s = Ukkonen.build_flat db in
  Pack_flat.pack db s
    ~internal:(Flat.nodes s - Flat.leaves s)
    ~leaves:(Flat.leaves s)
    ~positions:(Bioseq.Database.data_length db)
