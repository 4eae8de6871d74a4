(* Bucket index of a suffix: radix value of its first [prefix_len]
   symbols (terminator included as a digit). Suffixes shorter than
   [prefix_len] are handled separately. *)

let partitions ~prefix_len db =
  if prefix_len < 1 then invalid_arg "Partitioned.partitions: prefix_len < 1";
  let data = Bioseq.Database.data db in
  let total = Bioseq.Database.data_length db in
  let term = Bioseq.Alphabet.terminator (Bioseq.Database.alphabet db) in
  let radix = term + 1 in
  let num_buckets =
    let rec pow acc n = if n = 0 then acc else pow (acc * radix) (n - 1) in
    pow 1 prefix_len
  in
  let buckets = Array.make num_buckets [] in
  let short = ref [] in
  for pos = total - 1 downto 0 do
    (* Walking backwards keeps each bucket list in increasing position
       order. *)
    let rec digest i acc =
      if i = prefix_len then Some acc
      else if pos + i >= total then None
      else
        let c = Char.code (Bytes.get data (pos + i)) in
        let acc = (acc * radix) + c in
        if c = term && i < prefix_len - 1 then None else digest (i + 1) acc
    in
    match digest 0 0 with
    | Some h -> buckets.(h) <- pos :: buckets.(h)
    | None -> short := pos :: !short
  done;
  (buckets, !short)

let build ?(prefix_len = 1) db =
  let t = Tree.create db in
  let buckets, short = partitions ~prefix_len db in
  Array.iter (fun bucket -> List.iter (Ukkonen.insert_suffix_naive t) bucket) buckets;
  List.iter (Ukkonen.insert_suffix_naive t) short;
  t
