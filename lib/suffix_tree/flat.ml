(* One [int] per node per field, node [0] the root, [-1] for "none". A
   leaf never carries a suffix link, so its [link] slot holds its most
   recently recorded position instead; the rest of its positions chain
   through [pos_next], which is indexed by position (every database
   position is recorded on exactly one leaf). *)
type t = {
  db : Bioseq.Database.t;
  mutable start : int array;
  mutable stop : int array;
  mutable first_child : int array;
  mutable next_sibling : int array;
  mutable link : int array;
  pos_next : int array;
  mutable nodes : int;
  mutable leaves : int;
}

type node = int

(* A suffix tree over [n] symbols has [n] leaves and, for text from a
   memoryless source of entropy [h] nats per symbol, about [n / h]
   internal nodes. [h] is taken from the database's own symbol counts
   (terminators included), with a tenth more as slack: the estimate
   lands within a few percent of the real count on protein and DNA, and
   it is never below [n] leaves plus one. *)
let estimate_nodes db =
  let n = Bioseq.Database.data_length db in
  let data = Bioseq.Database.data db in
  let counts = Array.make 256 0 in
  for i = 0 to n - 1 do
    let c = Char.code (Bytes.unsafe_get data i) in
    counts.(c) <- counts.(c) + 1
  done;
  let h =
    Array.fold_left
      (fun h k ->
        if k = 0 then h
        else
          let p = float_of_int k /. float_of_int n in
          h -. (p *. log p))
      0. counts
  in
  let internal =
    if h < 0.1 then n else int_of_float (1.1 *. float_of_int n /. h)
  in
  max 16 (n + 1 + min n internal)

let create db =
  let n = Bioseq.Database.data_length db in
  let cap = estimate_nodes db in
  let t =
    {
      db;
      start = Array.make cap 0;
      stop = Array.make cap 0;
      first_child = Array.make cap (-1);
      next_sibling = Array.make cap (-1);
      link = Array.make cap (-1);
      pos_next = Array.make (max n 1) (-1);
      nodes = 1;
      leaves = 0;
    }
  in
  t.start.(0) <- -1;
  t

(* Grow by a quarter: an estimate that falls short does so by little,
   and the old and new arrays are both live while they are copied. *)
let grow t =
  let cap = Array.length t.start in
  let cap' = cap + (cap / 4) in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.start <- extend t.start 0;
  t.stop <- extend t.stop 0;
  t.first_child <- extend t.first_child (-1);
  t.next_sibling <- extend t.next_sibling (-1);
  t.link <- extend t.link (-1)

let alloc t ~start ~stop =
  if t.nodes = Array.length t.start then grow t;
  let n = t.nodes in
  t.nodes <- n + 1;
  t.start.(n) <- start;
  t.stop.(n) <- stop;
  n

let database t = t.db
let root _ = 0
let nodes t = t.nodes
let leaves t = t.leaves
let is_leaf t n = n > 0 && t.first_child.(n) < 0

let find_child t ~data n code =
  let rec scan c =
    if c < 0 then None
    else if Char.code (Bytes.unsafe_get data t.start.(c)) = code then Some c
    else scan t.next_sibling.(c)
  in
  scan t.first_child.(n)

let add_child t parent child =
  t.next_sibling.(child) <- t.first_child.(parent);
  t.first_child.(parent) <- child

let replace_child t parent ~old_child ~new_child =
  let rec scan prev c =
    if c < 0 then invalid_arg "Flat.replace_child: not a child"
    else if c = old_child then begin
      t.next_sibling.(new_child) <- t.next_sibling.(c);
      t.next_sibling.(c) <- -1;
      if prev < 0 then t.first_child.(parent) <- new_child
      else t.next_sibling.(prev) <- new_child
    end
    else scan c t.next_sibling.(c)
  in
  scan (-1) t.first_child.(parent)

let make_leaf t ~start ~stop ~position =
  let n = alloc t ~start ~stop in
  t.leaves <- t.leaves + 1;
  t.link.(n) <- position;
  n

let make_internal t ~start ~stop = alloc t ~start ~stop
let start t n = t.start.(n)
let stop t n = t.stop.(n)
let set_start t n v = t.start.(n) <- v

let suffix_link t n =
  let l = t.link.(n) in
  if l < 0 then None else Some l

let set_suffix_link t n target = t.link.(n) <- target

let add_position t n pos =
  t.pos_next.(pos) <- t.link.(n);
  t.link.(n) <- pos

let iter_children t n f =
  let c = ref t.first_child.(n) in
  while !c >= 0 do
    f !c;
    c := t.next_sibling.(!c)
  done

let iter_positions t n f =
  let q = ref t.link.(n) in
  while !q >= 0 do
    f !q;
    q := t.pos_next.(!q)
  done

let to_tree t =
  let tree = Tree.create t.db in
  let root = Tree.root tree in
  (* Every node is the target of at most one [first_child] or
     [next_sibling] field and of any number of suffix links, all of
     which can share one [Some] box per node. Records are made in node
     order, each next to its box; a second pass links them. *)
  let boxes = Array.make t.nodes (Some root) in
  for n = 1 to t.nodes - 1 do
    let r =
      if is_leaf t n then begin
        let ps = ref [] in
        iter_positions t n (fun p -> ps := p :: !ps);
        let r = Node.make_internal ~start:t.start.(n) ~stop:t.stop.(n) in
        r.Node.positions <- List.rev !ps;
        r
      end
      else Node.make_internal ~start:t.start.(n) ~stop:t.stop.(n)
    in
    boxes.(n) <- Some r
  done;
  let box i = if i < 0 then None else Array.unsafe_get boxes i in
  for n = 0 to t.nodes - 1 do
    match boxes.(n) with
    | None -> assert false
    | Some r ->
      r.Node.first_child <- box t.first_child.(n);
      r.Node.next_sibling <- box t.next_sibling.(n);
      if not (is_leaf t n) then r.Node.suffix_link <- box t.link.(n)
  done;
  tree
