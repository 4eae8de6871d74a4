(* Suffix tree construction and queries: paper example, randomized
   validation, Ukkonen vs partitioned equivalence. *)

let alpha = Bioseq.Alphabet.dna

let db_of_strings strings =
  Bioseq.Database.make
    (List.mapi
       (fun i s -> Bioseq.Sequence.make ~alphabet:alpha ~id:(Printf.sprintf "s%d" i) s)
       strings)

let naive_occurrences db pattern =
  (* All global positions where [pattern] occurs inside one sequence. *)
  let out = ref [] in
  for i = 0 to Bioseq.Database.num_sequences db - 1 do
    let s = Bioseq.Database.seq db i in
    let text = Bioseq.Sequence.to_string s in
    let base = Bioseq.Database.seq_start db i in
    let plen = String.length pattern and tlen = String.length text in
    for pos = 0 to tlen - plen do
      if String.sub text pos plen = pattern then out := (base + pos) :: !out
    done
  done;
  List.sort compare !out

let check_tree_matches_naive db tree =
  (match Suffix_tree.Tree.validate tree with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "validate: %s" msg);
  (* Exact-match equivalence on a sample of substrings. *)
  for i = 0 to Bioseq.Database.num_sequences db - 1 do
    let s = Bioseq.Database.seq db i in
    let text = Bioseq.Sequence.to_string s in
    let n = String.length text in
    for start = 0 to min 3 (n - 1) do
      for len = 1 to min 5 (n - start) do
        let pattern = String.sub text start len in
        let expected = naive_occurrences db pattern in
        let got =
          Suffix_tree.Tree.find_exact tree (Bioseq.Alphabet.encode alpha pattern)
        in
        Alcotest.(check (list int))
          (Printf.sprintf "occurrences of %S" pattern)
          expected got
      done
    done
  done

(* --- Paper example: Figure 2, sequence AGTACGCCTAG --- *)

let paper_db () = db_of_strings [ "AGTACGCCTAG" ]

let test_paper_figure2 () =
  let db = paper_db () in
  let tree = Suffix_tree.Ukkonen.build db in
  (match Suffix_tree.Tree.validate tree with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "validate: %s" msg);
  let stats = Suffix_tree.Tree.stats tree in
  (* 12 suffixes: AGTACGCCTAG$ ... $ *)
  Alcotest.(check int) "occurrences" 12 stats.Suffix_tree.Tree.occurrences;
  (* TACG occurs at position 2 (§2.3.1). *)
  let positions =
    Suffix_tree.Tree.find_exact tree (Bioseq.Alphabet.encode alpha "TACG")
  in
  Alcotest.(check (list int)) "TACG" [ 2 ] positions;
  (* AG occurs at 0 and 9. *)
  let positions =
    Suffix_tree.Tree.find_exact tree (Bioseq.Alphabet.encode alpha "AG")
  in
  Alcotest.(check (list int)) "AG" [ 0; 9 ] positions;
  (* Absent pattern. *)
  let positions =
    Suffix_tree.Tree.find_exact tree (Bioseq.Alphabet.encode alpha "GGG")
  in
  Alcotest.(check (list int)) "GGG" [] positions

let test_multi_sequence () =
  let db = db_of_strings [ "ACGTACGT"; "CGTA"; "TTTT" ] in
  let tree = Suffix_tree.Ukkonen.build db in
  check_tree_matches_naive db tree;
  let occurrences =
    Suffix_tree.Tree.find_exact tree (Bioseq.Alphabet.encode alpha "CGTA")
  in
  (* In s0 at global 1, and s1 is entirely CGTA at global 9. *)
  Alcotest.(check (list int)) "CGTA" [ 1; 9 ] occurrences

let test_duplicate_sequences () =
  (* Identical sequences exercise the implicit-suffix patch path. *)
  let db = db_of_strings [ "ACGT"; "ACGT"; "GT" ] in
  let tree = Suffix_tree.Ukkonen.build db in
  check_tree_matches_naive db tree;
  let occurrences =
    Suffix_tree.Tree.find_exact tree (Bioseq.Alphabet.encode alpha "GT")
  in
  Alcotest.(check (list int)) "GT" [ 2; 7; 10 ] occurrences

let test_repetitive () =
  let db = db_of_strings [ "AAAAAAAAAA"; "AAAA" ] in
  let tree = Suffix_tree.Ukkonen.build db in
  check_tree_matches_naive db tree

let test_mccreight_basics () =
  let db = db_of_strings [ "AGTACGCCTAG"; "TACG"; "ACGT"; "ACGT" ] in
  let tree = Suffix_tree.Mccreight.build db in
  check_tree_matches_naive db tree;
  Alcotest.(check bool) "same stats as ukkonen" true
    (Suffix_tree.Tree.stats tree
    = Suffix_tree.Tree.stats (Suffix_tree.Ukkonen.build db))

let test_path_helpers () =
  let db = paper_db () in
  let tree = Suffix_tree.Ukkonen.build db in
  let strings =
    Suffix_tree.Tree.fold tree ~init:[] ~f:(fun acc ~depth:_ node ->
        Suffix_tree.Tree.path_string tree node :: acc)
  in
  (* Every leaf path is a suffix followed by '$'. *)
  List.iter
    (fun s ->
      if String.length s > 0 && s.[String.length s - 1] = '$' then begin
        let body = String.sub s 0 (String.length s - 1) in
        let text = "AGTACGCCTAG" in
        let is_suffix =
          String.length body <= String.length text
          && String.sub text (String.length text - String.length body)
               (String.length body)
             = body
        in
        Alcotest.(check bool) (Printf.sprintf "%S is a suffix" body) true is_suffix
      end)
    strings

(* --- Incremental updates (Ukkonen.extend) --- *)

let test_extend_matches_batch () =
  let db0 = db_of_strings [ "ACGTACGT"; "CGTA" ] in
  let tree0 = Suffix_tree.Ukkonen.build db0 in
  let extra =
    [
      Bioseq.Sequence.make ~alphabet:alpha ~id:"s2" "TTACGTT";
      Bioseq.Sequence.make ~alphabet:alpha ~id:"s3" "CGTA" (* duplicate *);
    ]
  in
  let db1 = Bioseq.Database.append db0 extra in
  let tree1 = Suffix_tree.Ukkonen.extend tree0 db1 in
  check_tree_matches_naive db1 tree1;
  let batch = Suffix_tree.Ukkonen.build db1 in
  Alcotest.(check bool) "stats equal batch build" true
    (Suffix_tree.Tree.stats tree1 = Suffix_tree.Tree.stats batch)

let test_extend_rejects_non_extension () =
  let tree = Suffix_tree.Ukkonen.build (db_of_strings [ "ACGT" ]) in
  let other = db_of_strings [ "TTTT" ] in
  (try
     ignore (Suffix_tree.Ukkonen.extend tree other);
     Alcotest.fail "accepted a non-extension"
   with Invalid_argument _ -> ())

let qcheck_extend_equals_batch =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 4)
           (string_size ~gen:(oneofl [ 'A'; 'C'; 'G'; 'T' ]) (int_range 1 20)))
        (list_size (int_range 1 4)
           (string_size ~gen:(oneofl [ 'A'; 'C'; 'G'; 'T' ]) (int_range 1 20))))
  in
  QCheck.Test.make ~count:200 ~name:"incremental build equals batch build"
    (QCheck.make gen ~print:(fun (a, b) ->
         String.concat "/" a ^ " + " ^ String.concat "/" b))
    (fun (first, second) ->
      let db0 = db_of_strings first in
      let tree0 = Suffix_tree.Ukkonen.build db0 in
      let extra =
        List.mapi
          (fun i s ->
            Bioseq.Sequence.make ~alphabet:alpha ~id:(Printf.sprintf "x%d" i) s)
          second
      in
      let db1 = Bioseq.Database.append db0 extra in
      let tree1 = Suffix_tree.Ukkonen.extend tree0 db1 in
      match Suffix_tree.Tree.validate tree1 with
      | Error msg -> QCheck.Test.fail_reportf "invalid: %s" msg
      | Ok () ->
        let batch = Suffix_tree.Ukkonen.build db1 in
        Suffix_tree.Tree.stats tree1 = Suffix_tree.Tree.stats batch)

(* --- Randomized construction checks --- *)

let random_db_gen =
  let open QCheck.Gen in
  let seq_gen =
    let* len = int_range 1 30 in
    string_size ~gen:(oneofl [ 'A'; 'C'; 'G'; 'T' ]) (return len)
  in
  let* n = int_range 1 6 in
  list_size (return n) seq_gen

let qcheck_ukkonen_valid =
  QCheck.Test.make ~count:300 ~name:"ukkonen validates on random databases"
    (QCheck.make random_db_gen ~print:(String.concat "/"))
    (fun strings ->
      let db = db_of_strings strings in
      let tree = Suffix_tree.Ukkonen.build db in
      match Suffix_tree.Tree.validate tree with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_reportf "invalid tree: %s" msg)

let qcheck_mccreight_valid =
  QCheck.Test.make ~count:300 ~name:"mccreight validates on random databases"
    (QCheck.make random_db_gen ~print:(String.concat "/"))
    (fun strings ->
      let db = db_of_strings strings in
      let tree = Suffix_tree.Mccreight.build db in
      match Suffix_tree.Tree.validate tree with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_reportf "invalid tree: %s" msg)

let qcheck_mccreight_vs_ukkonen =
  QCheck.Test.make ~count:200 ~name:"mccreight and ukkonen agree structurally"
    (QCheck.make random_db_gen ~print:(String.concat "/"))
    (fun strings ->
      let db = db_of_strings strings in
      let a = Suffix_tree.Mccreight.build db in
      let b = Suffix_tree.Ukkonen.build db in
      Suffix_tree.Tree.stats a = Suffix_tree.Tree.stats b)

let qcheck_ukkonen_vs_partitioned =
  QCheck.Test.make ~count:150
    ~name:"ukkonen and partitioned builds agree structurally"
    (QCheck.make random_db_gen ~print:(String.concat "/"))
    (fun strings ->
      let db = db_of_strings strings in
      let a = Suffix_tree.Ukkonen.build db in
      let b = Suffix_tree.Partitioned.build ~prefix_len:2 db in
      let sa = Suffix_tree.Tree.stats a and sb = Suffix_tree.Tree.stats b in
      if sa <> sb then
        QCheck.Test.fail_reportf
          "stats differ: ukkonen (int=%d leaves=%d occ=%d depth=%d) vs \
           partitioned (int=%d leaves=%d occ=%d depth=%d)"
          sa.Suffix_tree.Tree.internal_nodes sa.leaves sa.occurrences
          sa.max_depth sb.Suffix_tree.Tree.internal_nodes sb.leaves
          sb.occurrences sb.max_depth
      else true)

let qcheck_find_exact =
  QCheck.Test.make ~count:200 ~name:"find_exact matches naive scan"
    (QCheck.make
       QCheck.Gen.(
         pair random_db_gen
           (string_size ~gen:(oneofl [ 'A'; 'C'; 'G'; 'T' ]) (int_range 1 6)))
       ~print:(fun (ss, p) -> String.concat "/" ss ^ " ? " ^ p))
    (fun (strings, pattern) ->
      let db = db_of_strings strings in
      let tree = Suffix_tree.Ukkonen.build db in
      let got =
        Suffix_tree.Tree.find_exact tree (Bioseq.Alphabet.encode alpha pattern)
      in
      let expected = naive_occurrences db pattern in
      if got <> expected then
        QCheck.Test.fail_reportf "got [%s], expected [%s]"
          (String.concat ";" (List.map string_of_int got))
          (String.concat ";" (List.map string_of_int expected))
      else true)

let qcheck_partition_cover =
  QCheck.Test.make ~count:100 ~name:"partitions cover every suffix exactly once"
    (QCheck.make random_db_gen ~print:(String.concat "/"))
    (fun strings ->
      let db = db_of_strings strings in
      let buckets, short = Suffix_tree.Partitioned.partitions ~prefix_len:2 db in
      let all =
        short @ Array.fold_left (fun acc b -> acc @ b) [] buckets
        |> List.sort compare
      in
      all = List.init (Bioseq.Database.data_length db) Fun.id)

(* --- The flat store: Ukkonen.build (flat, converted) must equal the
   pointer-store construction, and Packed.build must pack the same
   image as packing that tree --- *)

(* The pointer-store construction, as {!Ukkonen.extend} runs it. *)
let pointer_build db =
  let t = Suffix_tree.Tree.create db in
  for i = 0 to Bioseq.Database.num_sequences db - 1 do
    Suffix_tree.Ukkonen.Pointer.build_sequence t i
  done;
  t

module Phys = Hashtbl.Make (struct
  type t = Suffix_tree.Node.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* Walk both trees in lockstep, preorder in sibling order, comparing
   labels and position lists and pairing up the nodes; then check that
   paired nodes' suffix links point at paired nodes. Explicit stack, so
   path-shaped trees are fine. *)
let tree_diff (a : Suffix_tree.Tree.t) (b : Suffix_tree.Tree.t) =
  let module N = Suffix_tree.Node in
  let partner = Phys.create 1024 in
  let pairs = ref [] in
  let stack = ref [ (Suffix_tree.Tree.root a, Suffix_tree.Tree.root b) ] in
  let diff = ref None in
  while !diff = None && !stack <> [] do
    match !stack with
    | [] -> ()
    | ((x : N.t), (y : N.t)) :: rest ->
      stack := rest;
      Phys.replace partner x y;
      pairs := (x, y) :: !pairs;
      let cx = N.children x and cy = N.children y in
      if x.N.start <> y.N.start || x.N.stop <> y.N.stop then
        diff :=
          Some
            (Printf.sprintf "label [%d,%d) vs [%d,%d)" x.N.start x.N.stop
               y.N.start y.N.stop)
      else if x.N.positions <> y.N.positions then
        diff := Some (Printf.sprintf "positions of [%d,%d)" x.N.start x.N.stop)
      else if List.length cx <> List.length cy then
        diff := Some (Printf.sprintf "child count of [%d,%d)" x.N.start x.N.stop)
      else stack := List.combine cx cy @ !stack
  done;
  match !diff with
  | Some _ as d -> d
  | None ->
    List.find_map
      (fun ((x : N.t), (y : N.t)) ->
        match (x.N.suffix_link, y.N.suffix_link) with
        | None, None -> None
        | Some lx, Some ly -> (
          match Phys.find_opt partner lx with
          | Some p when p == ly -> None
          | _ ->
            Some (Printf.sprintf "suffix link of [%d,%d)" x.N.start x.N.stop))
        | _ ->
          Some
            (Printf.sprintf "suffix link presence at [%d,%d)" x.N.start x.N.stop))
      !pairs

(* Both images are compared through the public accessors only, handle
   by handle: ids are assigned in the same preorder, so equal images
   have equal labels, child runs and position slices at every index.
   No recursion, so a path-shaped tree is as cheap to check as any;
   [~subtree_positions:false] skips the internal nodes' position slices,
   whose total size is quadratic in a path-shaped tree's depth. *)
let packed_diff ?(subtree_positions = true) (a : Suffix_tree.Packed.t)
    (b : Suffix_tree.Packed.t) =
  let module P = Suffix_tree.Packed in
  let children p n =
    let acc = ref [] in
    P.gather_children p n (fun c ~start ~stop ~sym ->
        acc := (c, start, stop, sym) :: !acc);
    List.rev !acc
  in
  let positions p n =
    let acc = ref [] in
    P.iter_positions p n (fun q -> acc := q :: !acc);
    List.rev !acc
  in
  let node n =
    if P.label_start a n <> P.label_start b n || P.label_stop a n <> P.label_stop b n
    then Some (Printf.sprintf "label of node %d" n)
    else if children a n <> children b n then
      Some (Printf.sprintf "children of node %d" n)
    else if
      (subtree_positions || P.is_leaf n) && positions a n <> positions b n
    then
      Some (Printf.sprintf "positions below node %d" n)
    else None
  in
  if P.internal_nodes a <> P.internal_nodes b then
    Some
      (Printf.sprintf "internal nodes %d vs %d" (P.internal_nodes a)
         (P.internal_nodes b))
  else if P.leaves a <> P.leaves b then
    Some (Printf.sprintf "leaves %d vs %d" (P.leaves a) (P.leaves b))
  else
    let rec internal i =
      if i >= P.internal_nodes a then leaf 0
      else match node i with None -> internal (i + 1) | d -> d
    and leaf l =
      if l >= P.leaves a then None
      else match node (lnot l) with None -> leaf (l + 1) | d -> d
    in
    internal 0

let check_direct_build ?subtree_positions db =
  let tree = Suffix_tree.Ukkonen.build db in
  match tree_diff tree (pointer_build db) with
  | Some d -> Some ("Ukkonen.build vs the pointer store: " ^ d)
  | None ->
    let direct = Suffix_tree.Packed.build db in
    let via_tree = Suffix_tree.Packed.of_tree tree in
    packed_diff ?subtree_positions direct via_tree

let direct_build_property ~name ~count gen print =
  QCheck.Test.make ~count ~name (QCheck.make gen ~print) (fun db ->
      match check_direct_build db with
      | None -> true
      | Some d -> QCheck.Test.fail_reportf "flat build differs: %s" d)

let db_of alphabet strings =
  Bioseq.Database.make
    (List.mapi
       (fun i s ->
         Bioseq.Sequence.make ~alphabet ~id:(Printf.sprintf "s%d" i) s)
       strings)

let print_db db =
  String.concat "/"
    (List.init (Bioseq.Database.num_sequences db) (fun i ->
         Bioseq.Sequence.to_string (Bioseq.Database.seq db i)))

(* Sequences over [letters], some of them repeated whole or as a
   suffix of an earlier one, so the duplicate-suffix walk
   (insert_suffix_naive) runs on most inputs. *)
let repeats_gen alphabet letters =
  QCheck.Gen.(
    let seq = string_size ~gen:(oneofl letters) (int_range 1 30) in
    let* base = list_size (int_range 1 5) seq in
    let* copies =
      list_size (int_range 0 4)
        (let* s = oneofl base in
         let* cut = int_bound (String.length s - 1) in
         oneofl [ s; String.sub s cut (String.length s - cut) ])
    in
    let* strings = shuffle_l (base @ copies) in
    return (db_of alphabet strings))

let qcheck_direct_build_dna =
  direct_build_property ~name:"Packed.build = of_tree (Ukkonen.build), DNA"
    ~count:300
    (repeats_gen Bioseq.Alphabet.dna [ 'A'; 'C'; 'G'; 'T' ])
    print_db

let qcheck_direct_build_protein =
  direct_build_property ~name:"Packed.build = of_tree (Ukkonen.build), protein"
    ~count:200
    (repeats_gen Bioseq.Alphabet.protein
       [ 'A'; 'C'; 'D'; 'E'; 'K'; 'L'; 'M'; 'W' ])
    print_db

let qcheck_direct_build_one_sequence =
  direct_build_property
    ~name:"Packed.build = of_tree (Ukkonen.build), one sequence" ~count:200
    QCheck.Gen.(
      map
        (fun s -> db_of Bioseq.Alphabet.dna [ s ])
        (string_size ~gen:(oneofl [ 'A'; 'C' ]) (int_range 1 60)))
    print_db

let check_no_diff what = function
  | None -> ()
  | Some d -> Alcotest.failf "%s: flat build differs: %s" what d

let test_direct_build_protein_db () =
  let rng = Workload.Rng.create ~seed:7 in
  let db = Workload.Generate.protein_database rng ~target_symbols:20_000 () in
  check_no_diff "generated protein database" (check_direct_build db)

(* A periodic sequence: four symbols at equal frequency, so the entropy
   estimate expects a random-looking tree, but nearly every suffix
   branches only at its end. The flat store outgrows its first
   capacity and must still build the same tree. *)
let test_direct_build_grows () =
  let db =
    db_of Bioseq.Alphabet.dna
      [ String.concat "" (List.init 2_000 (fun _ -> "ACGT")); "GTAC" ]
  in
  let s = Suffix_tree.Ukkonen.build_flat db in
  Alcotest.(check bool) "outgrew the estimate" true
    (Suffix_tree.Flat.nodes s > Suffix_tree.Flat.estimate_nodes db);
  check_no_diff "periodic sequence" (check_direct_build db)

(* One 100K-symbol run of a single letter: the tree is a path as deep
   as the sequence, which both builders and the packing pass must
   handle with explicit stacks. *)
let test_direct_build_deep () =
  let db =
    db_of Bioseq.Alphabet.dna [ String.make 100_000 'A'; String.make 50 'A' ]
  in
  check_no_diff "single-symbol run"
    (check_direct_build ~subtree_positions:false db);
  let p = Suffix_tree.Packed.build db in
  Alcotest.(check int) "one leaf per distinct suffix" 100_001
    (Suffix_tree.Packed.leaves p)

let () =
  Alcotest.run "suffix_tree"
    [
      ( "examples",
        [
          Alcotest.test_case "paper figure 2" `Quick test_paper_figure2;
          Alcotest.test_case "multi-sequence" `Quick test_multi_sequence;
          Alcotest.test_case "duplicate sequences" `Quick test_duplicate_sequences;
          Alcotest.test_case "repetitive" `Quick test_repetitive;
          Alcotest.test_case "mccreight" `Quick test_mccreight_basics;
          Alcotest.test_case "path helpers" `Quick test_path_helpers;
          Alcotest.test_case "incremental extend" `Quick test_extend_matches_batch;
          Alcotest.test_case "extend rejects non-extension" `Quick
            test_extend_rejects_non_extension;
          Alcotest.test_case "direct packed build, protein database" `Quick
            test_direct_build_protein_db;
          Alcotest.test_case "direct packed build, 100K single-symbol run"
            `Quick test_direct_build_deep;
          Alcotest.test_case "direct packed build, flat store grows" `Quick
            test_direct_build_grows;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_ukkonen_valid;
            qcheck_ukkonen_vs_partitioned;
            qcheck_find_exact;
            qcheck_partition_cover;
            qcheck_extend_equals_batch;
            qcheck_mccreight_valid;
            qcheck_mccreight_vs_ukkonen;
            qcheck_direct_build_dna;
            qcheck_direct_build_protein;
            qcheck_direct_build_one_sequence;
          ] );
    ]
