type t = { db : Bioseq.Database.t; root : Node.t }
type node = Node.t

let database t = t.db
let root t = t.root
let is_leaf = Node.is_leaf
let children = Node.children
let iter_children n f = Node.iter_children n f
let label (n : node) = (n.Node.start, n.Node.stop)
let label_start (n : node) = n.Node.start
let label_stop (n : node) = n.Node.stop
let positions (n : node) = n.Node.positions

let data t = Bioseq.Database.data t.db

let gather_children t node f =
  let data = Bioseq.Database.data t.db in
  (* Two passes over the sibling links: internal children first, then
     leaves — the canonical order the disk image stores and the search
     engines iterate. Labels of real children are non-empty and inside
     the database by construction, so the symbol read skips the bounds
     check; the [start < stop] guard keeps a degenerate label honest. *)
  let emit (c : Node.t) =
    let start = c.Node.start in
    let stop = c.Node.stop in
    let sym =
      if start < stop then Char.code (Bytes.unsafe_get data start) else -1
    in
    f c ~start ~stop ~sym
  in
  let rec internals = function
    | None -> ()
    | Some (c : Node.t) ->
      (match c.Node.first_child with Some _ -> emit c | None -> ());
      internals c.Node.next_sibling
  in
  let rec leaves = function
    | None -> ()
    | Some (c : Node.t) ->
      (match c.Node.first_child with None -> emit c | Some _ -> ());
      leaves c.Node.next_sibling
  in
  internals node.Node.first_child;
  leaves node.Node.first_child

(* The node type stores no parent link, so root-to-node paths are
   recovered by a physical-equality search from the root (debug-grade
   helpers; the search engines track paths themselves). *)
let path_labels t n =
  let exception Found of (int * int) list in
  let rec go acc node =
    if node == n then raise (Found (List.rev acc))
    else Node.iter_children node (fun child -> go (label child :: acc) child)
  in
  if Node.is_root n then []
  else
    try
      Node.iter_children t.root (fun child -> go [ label child ] child);
      invalid_arg "Tree.path_labels: node not in tree"
    with Found labels -> labels

let path_length t n =
  List.fold_left (fun acc (start, stop) -> acc + stop - start) 0 (path_labels t n)

let path_string t n =
  let alphabet = Bioseq.Database.alphabet t.db in
  path_labels t n
  |> List.map (fun (start, stop) ->
         String.init (stop - start) (fun i ->
             Bioseq.Alphabet.to_char alphabet
               (Bioseq.Database.code t.db (start + i))))
  |> String.concat ""

let subtree_positions n =
  (* Explicit work stack: degenerate inputs (e.g. one 100k-symbol run of
     a single character) make the tree as deep as the longest sequence,
     which would overflow native recursion. *)
  let acc = ref [] in
  let stack = ref [ n ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | node :: rest ->
      stack := rest;
      acc := List.rev_append (positions node) !acc;
      Node.iter_children node (fun child -> stack := child :: !stack)
  done;
  !acc

let find_exact t pattern =
  let data = data t in
  let plen = Bytes.length pattern in
  if plen = 0 then invalid_arg "Tree.find_exact: empty pattern";
  (* Walk the pattern down from the root; [i] is the number of pattern
     symbols matched so far. *)
  let rec walk node i =
    if i >= plen then Some node
    else
      match Node.find_child ~data node (Char.code (Bytes.get pattern i)) with
      | None -> None
      | Some child ->
        let start, stop = label child in
        let rec consume j =
          (* Compare along the edge. *)
          if j >= plen then Some child
          else if start + j - i >= stop then walk child j
          else if Bytes.get data (start + j - i) = Bytes.get pattern j then
            consume (j + 1)
          else None
        in
        consume i
  in
  match walk t.root 0 with
  | None -> []
  | Some node -> List.sort Int.compare (subtree_positions node)

let fold t ~init ~f =
  (* Pre-order with an explicit stack (see [subtree_positions]). *)
  let acc = ref init in
  let stack = ref [] in
  let push_children depth node =
    (* Reverse so the leftmost child is processed first. *)
    let children = List.rev (Node.children node) in
    List.iter (fun child -> stack := (depth, child) :: !stack) children
  in
  push_children 0 t.root;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (depth, node) :: rest ->
      stack := rest;
      acc := f !acc ~depth node;
      push_children (depth + Node.label_length node) node
  done;
  !acc

type stats = {
  internal_nodes : int;
  leaves : int;
  occurrences : int;
  max_depth : int;
}

let stats t =
  fold t
    ~init:{ internal_nodes = 0; leaves = 0; occurrences = 0; max_depth = 0 }
    ~f:(fun acc ~depth node ->
      let depth_here = depth + Node.label_length node in
      let acc = { acc with max_depth = max acc.max_depth depth_here } in
      if is_leaf node then
        {
          acc with
          leaves = acc.leaves + 1;
          occurrences = acc.occurrences + List.length (positions node);
        }
      else { acc with internal_nodes = acc.internal_nodes + 1 })

let create db = { db; root = Node.make_root () }

let with_database t db =
  let old_data = Bioseq.Database.data t.db in
  let new_data = Bioseq.Database.data db in
  let old_len = Bioseq.Database.data_length t.db in
  let extends =
    Bioseq.Database.data_length db >= old_len
    && (old_data == new_data (* in-place append: same buffer, same prefix *)
       ||
       let rec eq i =
         i >= old_len
         || Bytes.get old_data i = Bytes.get new_data i && eq (i + 1)
       in
       eq 0)
  in
  if not extends then
    invalid_arg "Tree.with_database: new database does not extend the old";
  { db; root = t.root }

(* Length of the suffix starting at [pos]: up to and including the
   terminator of its sequence. *)
let suffix_stop t pos =
  let data = data t in
  let term = Char.chr (Bioseq.Alphabet.terminator (Bioseq.Database.alphabet t.db)) in
  let rec find i = if Bytes.get data i = term then i + 1 else find (i + 1) in
  find pos

let validate t =
  let db = t.db in
  let data = data t in
  let term = Bioseq.Alphabet.terminator (Bioseq.Database.alphabet db) in
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let total = Bioseq.Database.data_length db in
  (* Structural pass. *)
  let rec check_node depth node =
    let start, stop = label node in
    if start < 0 || stop > total || start >= stop then
      error "bad label [%d,%d)" start stop;
    (* The label must not continue past a terminator. *)
    for i = start to stop - 2 do
      if Char.code (Bytes.get data i) = term then
        error "label [%d,%d) crosses a terminator at %d" start stop i
    done;
    if is_leaf node then begin
      (match positions node with
      | [] -> error "leaf with no positions at [%d,%d)" start stop
      | ps ->
        List.iter
          (fun p ->
            if p < 0 || p >= total then error "leaf position %d out of range" p)
          ps);
      if Char.code (Bytes.get data (stop - 1)) <> term then
        error "leaf label [%d,%d) does not end with a terminator" start stop
    end
    else begin
      if positions node <> [] then error "internal node with positions";
      if Node.num_children node < 2 then
        error "internal node at [%d,%d) with < 2 children" start stop;
      let seen = Hashtbl.create 8 in
      Node.iter_children node (fun child ->
          let c = Char.code (Bytes.get data child.Node.start) in
          if Hashtbl.mem seen c then
            error "two children starting with symbol %d" c;
          Hashtbl.add seen c ();
          check_node (depth + Node.label_length node) child)
    end
  in
  Node.iter_children t.root (fun child -> check_node 0 child);
  (* Suffix-link pass: for every internal node carrying a link,
     path(link) must be path(node) minus its first symbol. Paths are
     materialized from any leaf descendant (position [p] at depth [d]
     means the path is data[p .. p+d)). Quadratic in node count, which
     is fine for a test-grade checker. *)
  let entries = ref [] in
  let rec collect depth node =
    if not (is_leaf node) then begin
      (match subtree_positions node with
      | p :: _ -> entries := (node, p, depth + Node.label_length node) :: !entries
      | [] -> ());
      Node.iter_children node (fun child ->
          collect (depth + Node.label_length node) child)
    end
  in
  Node.iter_children t.root (fun child -> collect 0 child);
  let find_entry target =
    List.find_opt (fun (node, _, _) -> node == target) !entries
  in
  List.iter
    (fun ((node : Node.t), p, depth) ->
      match node.Node.suffix_link with
      | None -> ()
      | Some link ->
        if Node.is_root link then begin
          if depth > 1 then
            error "suffix link of a depth-%d node points at the root" depth
        end
        else begin
          match find_entry link with
          | None -> error "suffix link points outside the tree's internal nodes"
          | Some (_, p', depth') ->
            if depth' <> depth - 1 then
              error "suffix link drops depth %d -> %d" depth depth'
            else begin
              let ok = ref true in
              for i = 0 to depth' - 1 do
                if Bytes.get data (p + 1 + i) <> Bytes.get data (p' + i) then
                  ok := false
              done;
              if not !ok then error "suffix link path mismatch at depth %d" depth
            end
        end)
    !entries;
  (* Coverage pass: every suffix must be findable and occurrence counts
     must add up to the number of suffixes. *)
  let expected = total in
  let s = stats t in
  if s.occurrences <> expected then
    error "tree stores %d occurrences, database has %d suffixes" s.occurrences
      expected;
  let ok = ref 0 in
  for pos = 0 to total - 1 do
    let stop = suffix_stop t pos in
    let pattern = Bytes.sub data pos (stop - pos) in
    if List.mem pos (find_exact t pattern) then incr ok
    else error "suffix at %d not found" pos
  done;
  ignore !ok;
  match !errors with
  | [] -> Ok ()
  | errs ->
    Error (String.concat "; " (List.rev (List.filteri (fun i _ -> i < 10) errs)))
