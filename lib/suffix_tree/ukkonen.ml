module type STORE = sig
  type t
  type node

  val database : t -> Bioseq.Database.t
  val root : t -> node
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
end

module Make (S : STORE) = struct
  (* One past the terminator that ends the suffix starting at [pos]. *)
  let suffix_stop db pos =
    let data = Bioseq.Database.data db in
    let term =
      Char.chr (Bioseq.Alphabet.terminator (Bioseq.Database.alphabet db))
    in
    let rec find i = if Bytes.get data i = term then i + 1 else find (i + 1) in
    find pos

  let insert_suffix_naive t pos =
    let db = S.database t in
    let data = Bioseq.Database.data db in
    let stop = suffix_stop db pos in
    (* Walk from the root matching data[pos..stop); [i] is the global
       index of the next unmatched suffix symbol. *)
    let rec walk node i =
      if i >= stop then
        (* Whole suffix matched: [node] must be a leaf with the same
           path; record the extra occurrence. *)
        S.add_position t node pos
      else
        match S.find_child t ~data node (Char.code (Bytes.get data i)) with
        | None -> S.add_child t node (S.make_leaf t ~start:i ~stop ~position:pos)
        | Some child ->
          let cstart = S.start t child and cstop = S.stop t child in
          let rec consume j =
            (* [j] symbols of the edge matched so far. *)
            if cstart + j >= cstop then walk child (i + j)
            else if i + j >= stop then begin
              (* Suffix exhausted mid-edge: impossible for
                 terminator-ended suffixes unless the edge continues
                 past a terminator. *)
              assert false
            end
            else if Bytes.get data (cstart + j) = Bytes.get data (i + j) then
              consume (j + 1)
            else begin
              (* Mismatch at edge offset [j]: split. *)
              let split = S.make_internal t ~start:cstart ~stop:(cstart + j) in
              S.replace_child t node ~old_child:child ~new_child:split;
              S.set_start t child (cstart + j);
              S.add_child t split child;
              S.add_child t split
                (S.make_leaf t ~start:(i + j) ~stop ~position:pos)
            end
          in
          consume 0
    in
    walk (S.root t) pos

  (* Set the pending suffix link of the internal node made by the
     previous extension of this phase, if any. *)
  let set_pending_link t pending target =
    match pending with Some n -> S.set_suffix_link t n target | None -> ()

  (* Classic Ukkonen with the active-point formulation, run over one
     sequence region [seq_start, seq_stop) at a time ([seq_stop] is one
     past the terminator). Leaves are created with their final edge end
     ([seq_stop]-relative) immediately; during construction the
     effective edge length is capped at the current phase position.

     No local closure captures the active point or [last_new_node], so
     they stay unboxed: a captured [ref] would be a heap cell whose
     every node-valued write goes through the write barrier. *)
  let build_sequence t seq_index =
    let db = S.database t in
    let root = S.root t in
    let data = Bioseq.Database.data db in
    let code i = Char.code (Bytes.unsafe_get data i) in
    let seq_start = Bioseq.Database.seq_start db seq_index in
    let seq_len = Bioseq.Sequence.length (Bioseq.Database.seq db seq_index) in
    let seq_stop = seq_start + seq_len + 1 (* include terminator *) in
    let active_node = ref root in
    let active_edge = ref 0 in
    let active_length = ref 0 in
    let remainder = ref 0 in
    let last_new_node = ref None in
    for pos = seq_start to seq_stop - 1 do
      let c = code pos in
      incr remainder;
      last_new_node := None;
      let continue = ref true in
      while !continue && !remainder > 0 do
        if !active_length = 0 then active_edge := pos;
        let rule2 =
          match S.find_child t ~data !active_node (code !active_edge) with
          | None ->
            (* Rule 2 from a node: new leaf child. *)
            let position = pos - !remainder + 1 in
            S.add_child t !active_node
              (S.make_leaf t ~start:pos ~stop:seq_stop ~position);
            set_pending_link t !last_new_node !active_node;
            last_new_node := None;
            true
          | Some next ->
            let next_start = S.start t next in
            let edge_stop = min (S.stop t next) (pos + 1) in
            let edge_len = edge_stop - next_start in
            if !active_length >= edge_len then begin
              (* Skip/count: walk down a full edge. *)
              active_node := next;
              active_edge := !active_edge + edge_len;
              active_length := !active_length - edge_len;
              false
            end
            else if code (next_start + !active_length) = c then begin
              (* Rule 3: the extension is already implicit; end the
                 phase. *)
              set_pending_link t !last_new_node !active_node;
              last_new_node := None;
              incr active_length;
              continue := false;
              false
            end
            else begin
              (* Rule 2 with split. *)
              let split =
                S.make_internal t ~start:next_start
                  ~stop:(next_start + !active_length)
              in
              S.replace_child t !active_node ~old_child:next ~new_child:split;
              S.set_start t next (next_start + !active_length);
              S.add_child t split next;
              let position = pos - !remainder + 1 in
              S.add_child t split
                (S.make_leaf t ~start:pos ~stop:seq_stop ~position);
              set_pending_link t !last_new_node split;
              last_new_node := Some split;
              true
            end
        in
        if rule2 then begin
          (* Advance to the next (shorter) suffix. *)
          decr remainder;
          if !active_node == root && !active_length > 0 then begin
            decr active_length;
            active_edge := pos - !remainder + 1
          end
          else if not (!active_node == root) then
            active_node :=
              (match S.suffix_link t !active_node with
              | Some link -> link
              | None -> root)
        end
      done
    done;
    (* Suffixes still implicit after the terminator phase are exact
       duplicates of paths from earlier sequences; record their
       occurrences on the existing leaves. *)
    for j = seq_stop - !remainder to seq_stop - 1 do
      insert_suffix_naive t j
    done
end

(* The pointer store: {!Node} records, as {!Tree} exposes them. Every
   function takes all its arguments at once, so the functor's calls
   through [S] stay exact-arity applications. *)
module Pointer = Make (struct
  type t = Tree.t
  type node = Node.t

  let database = Tree.database
  let root = Tree.root
  let find_child _ ~data node code = Node.find_child ~data node code
  let add_child _ parent child = Node.add_child parent child

  let replace_child _ parent ~old_child ~new_child =
    Node.replace_child parent ~old_child ~new_child

  let make_leaf _ ~start ~stop ~position = Node.make_leaf ~start ~stop ~position
  let make_internal _ ~start ~stop = Node.make_internal ~start ~stop
  let start _ (n : node) = n.Node.start
  let stop _ (n : node) = n.Node.stop
  let set_start _ (n : node) v = n.Node.start <- v
  let suffix_link _ (n : node) = n.Node.suffix_link
  let set_suffix_link _ (n : node) target = n.Node.suffix_link <- Some target
  let add_position _ (n : node) pos = n.Node.positions <- pos :: n.Node.positions
end)

module Flat_build = Make (Flat)

let insert_suffix_naive = Pointer.insert_suffix_naive

let build_flat db =
  let s = Flat.create db in
  for i = 0 to Bioseq.Database.num_sequences db - 1 do
    Flat_build.build_sequence s i
  done;
  s

(* Built in the flat store and converted: the phase loop then runs
   without allocating a heap record per node, and the conversion makes
   each record once, in one pass. *)
let build db = Flat.to_tree (build_flat db)

let extend tree db =
  let old_n = Bioseq.Database.num_sequences (Tree.database tree) in
  let t = Tree.with_database tree db in
  for i = old_n to Bioseq.Database.num_sequences db - 1 do
    Pointer.build_sequence t i
  done;
  t
