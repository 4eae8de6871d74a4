(* The benchmark's own tests: estimators, the output checker and the
   input generator. Run with [python3 perfbench/run.py --self-test]. *)

open Perfbench_core

let floats = Alcotest.(list (float 0.))

let percentile_refuses_thin_tail () =
  let xs n = List.init n float_of_int in
  Alcotest.(check bool) "p90 of 99 samples refused" true
    (Result.is_error (Stats.percentile 90. (xs 99)));
  Alcotest.(check bool) "p90 of 50 samples refused" true
    (Result.is_error (Stats.percentile 90. (xs 50)));
  Alcotest.(check (result (float 0.) string)) "p90 of 100 samples" (Ok 89.)
    (Stats.percentile 90. (xs 100));
  Alcotest.(check int) "exactly 10 beyond p90 of 100" 10 (Stats.beyond ~n:100 90.);
  Alcotest.(check bool) "p99 of 100 samples refused" true
    (Result.is_error (Stats.percentile 99. (xs 100)));
  Alcotest.(check (float 0.)) "median of 5" 2. (Stats.median (xs 5))

let fastest_pass () =
  Alcotest.check floats "per-request minimum" [ 2.; 1.; 5. ]
    (Stats.fastest_pass [ [| 3.; 1.; 5. |]; [| 2.; 4.; 6. |] ]);
  Alcotest.check floats "one pass is itself" [ 7.; 8. ] (Stats.fastest_pass [ [| 7.; 8. |] ]);
  Alcotest.check_raises "passes must align"
    (Invalid_argument "Stats.fastest_pass: passes differ in request count") (fun () ->
      ignore (Stats.fastest_pass [ [| 1. |]; [| 1.; 2. |] ]))

let hit seq_id score = { Check.seq_id; score; query_stop = 5; target_stop = 9 }
let stream = [ hit "a" 40; hit "b" 35; hit "c" 35; hit "d" 31 ]
let ok r = Result.is_ok r

let checker_rejects_damage () =
  Alcotest.(check bool) "identical" true (ok (Check.stream ~expected:stream stream));
  let altered = List.mapi (fun i h -> if i = 2 then { h with Check.score = 34 } else h) stream in
  Alcotest.(check bool) "one hit altered" false (ok (Check.stream ~expected:stream altered));
  let moved = List.mapi (fun i h -> if i = 1 then { h with Check.target_stop = 10 } else h) stream in
  Alcotest.(check bool) "one end moved" false (ok (Check.stream ~expected:stream moved));
  Alcotest.(check bool) "one hit dropped" false
    (ok (Check.stream ~expected:stream (List.filteri (fun i _ -> i <> 3) stream)));
  Alcotest.(check bool) "one hit added" false
    (ok (Check.stream ~expected:stream (stream @ [ hit "e" 30 ])));
  let swapped = [ hit "a" 40; hit "c" 35; hit "b" 35; hit "d" 31 ] in
  Alcotest.(check bool) "two hits reordered" false (ok (Check.stream ~expected:stream swapped))

let cli_lines ~count hits =
  Printf.sprintf "# query q1: %d hit(s)" count
  :: List.mapi
       (fun i (h : Check.hit) ->
         Printf.sprintf "%4d. %-24s score %-5d (ends: query %d, target %d)" (i + 1) h.seq_id
           h.score h.query_stop h.target_stop)
       hits

let cli_checker () =
  let verdict lines = (Check.cli ~top:2 ~ids:[| "q1" |] ~expected:[| stream |] (Check.parse_cli lines)).(0) in
  Alcotest.(check bool) "header count and top lines" true
    (ok (verdict (("# fused batch: 1 queries" :: cli_lines ~count:4 (Check.take 2 stream)))));
  Alcotest.(check bool) "wrong header count" false (ok (verdict (cli_lines ~count:3 (Check.take 2 stream))));
  Alcotest.(check bool) "a line dropped" false (ok (verdict (cli_lines ~count:4 (Check.take 1 stream))));
  Alcotest.(check bool) "a line altered" false
    (ok (verdict (cli_lines ~count:4 [ hit "a" 40; hit "b" 36 ])));
  Alcotest.(check bool) "query missing" false (ok (verdict [ "# nothing" ]))

let fasta (i : Gen.inputs) =
  Bioseq.Fasta.to_string (Gen.db_sequences i.db @ i.motifs @ i.batch)

let generator_deterministic () =
  let make seed = fasta (Gen.make ~db_symbols:20_000 ~seed ()) in
  Alcotest.(check string) "same seed, same inputs" (make 3) (make 3);
  Alcotest.(check bool) "another seed, other inputs" true (make 3 <> make 4);
  let i = Gen.make ~db_symbols:20_000 ~seed:3 () in
  Alcotest.(check int) "motif count" Gen.motif_count (List.length i.motifs);
  Alcotest.(check int) "batch size"
    ((Gen.families * Gen.variants_per_family) + Gen.unrelated)
    (List.length i.batch)

(* Spans from another process keep their tree and their coverage, and
   never share an id with the spans already recorded. *)
let adopt_renumbers () =
  let child = Span.create () in
  Span.with_span child "root" (fun () -> Span.with_span child "leaf" ignore);
  let theirs = Span.spans child in
  let tr = Span.create () in
  Span.with_span tr "mine" ignore;
  Span.adopt tr theirs;
  let spans = Span.spans tr in
  let ids = List.sort_uniq compare (List.map (fun (s : Span.span) -> s.id) spans) in
  Alcotest.(check int) "distinct ids" 3 (List.length ids);
  Alcotest.(check int) "leaf under its root" 1 (List.length (Span.under ~root:"root" "leaf" spans));
  let covered = List.map snd (Span.covered ~root:"root" spans) in
  Alcotest.(check (list (float 1e-12))) "coverage kept"
    (List.map snd (Span.covered ~root:"root" theirs))
    covered

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile refuses a thin tail" `Quick percentile_refuses_thin_tail;
          Alcotest.test_case "fastest-pass estimator" `Quick fastest_pass;
        ] );
      ( "check",
        [
          Alcotest.test_case "stream checker rejects damage" `Quick checker_rejects_damage;
          Alcotest.test_case "CLI output checker" `Quick cli_checker;
        ] );
      ("gen", [ Alcotest.test_case "deterministic per seed" `Quick generator_deterministic ]);
      ("span", [ Alcotest.test_case "adopted spans are renumbered" `Quick adopt_renumbers ]);
    ]
