(* Seeded inputs for every workload. The same seed always yields the
   same database and query files; the daemon and the CLI only ever see
   the FASTA files written from these values. *)

let alphabet = Bioseq.Alphabet.protein
let db_symbols = 300_000

type inputs = {
  db : Bioseq.Database.t;
  motifs : Bioseq.Sequence.t list;  (** serve workloads: one request each *)
  batch : Bioseq.Sequence.t list;  (** cli_batch: families + unrelated *)
}

let motif_count = 200
let families = 10
let variants_per_family = 6
let unrelated = 40

(* ProClass-like lengths (6 + a geometric tail of mean 10, capped at 56,
   as [Workload.Motif.proclass_length] draws them), taken at [n] evenly
   spaced quantiles instead of drawn: every seed then gets the same
   length mix, so seeds differ in content, not in how much work the
   lengths alone imply. Slots are visited with a fixed stride so short
   and long queries interleave. *)
let proclass_lengths n =
  let len i =
    let u = (float_of_int i +. 0.5) /. float_of_int n in
    min 56 (6 + int_of_float (Float.log (1. -. u) /. Float.log 0.9))
  in
  let stride = if n mod 37 = 0 then 1 else 37 in
  List.init n (fun j -> len (j * stride mod n))

(* Independent generator streams per input, so resizing one input never
   shifts another's draws. *)
let stream ~seed k = Workload.Rng.create ~seed:((seed * 7919) + k)

let make ?(db_symbols = db_symbols) ~seed () =
  let db =
    Workload.Generate.protein_database (stream ~seed 1)
      ~target_symbols:db_symbols ()
  in
  let rng = stream ~seed 2 in
  let motifs =
    List.mapi
      (fun i len ->
        Workload.Motif.sample rng ~db ~len ~mutation_rate:0.1
          ~id:(Printf.sprintf "motif%03d" i) ())
      (proclass_lengths motif_count)
  in
  let rng = stream ~seed 3 in
  let family f len =
    let base =
      Workload.Motif.sample rng ~db ~len ~mutation_rate:0.1
        ~id:(Printf.sprintf "fam%d" f) ()
    in
    List.init variants_per_family (fun v ->
        let s = Workload.Motif.mutate rng ~rate:0.15 base in
        Bioseq.Sequence.of_codes ~alphabet
          ~id:(Printf.sprintf "fam%d_v%d" f v)
          (Bioseq.Sequence.codes s))
  in
  let fams = List.concat (List.mapi family (proclass_lengths families)) in
  let others =
    List.mapi
      (fun i len ->
        Workload.Motif.sample rng ~db ~len ~mutation_rate:0.1
          ~id:(Printf.sprintf "solo%02d" i) ())
      (proclass_lengths unrelated)
  in
  { db; motifs; batch = fams @ others }

let db_sequences db =
  List.init (Bioseq.Database.num_sequences db) (Bioseq.Database.seq db)
