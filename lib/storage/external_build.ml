let max_partition_occurrences db =
  let buckets, short =
    Suffix_tree.Partitioned.partitions ~prefix_len:1 db
  in
  assert (short = []);
  Array.fold_left (fun acc b -> max acc (List.length b)) 0 buckets

let write ?(layout = Disk_tree.Position_indexed) db ~symbols ~internal ~leaves =
  if
    Device.length symbols <> 0 || Device.length internal <> 0
    || Device.length leaves <> 0
  then invalid_arg "External_build.write: devices must be empty";
  let data_len = Bioseq.Database.data_length db in
  Device.append symbols (Bytes.sub (Bioseq.Database.data db) 0 data_len);
  Disk_tree.Private.write_leaf_header leaves layout;
  (match layout with
  | Disk_tree.Position_indexed ->
    Disk_tree.Private.reserve_position_leaves leaves data_len
  | Disk_tree.Clustered -> ());
  (* One first-symbol partition per alphabet code plus the terminator;
     each becomes at most one root child. *)
  let dir_cap =
    Bioseq.Alphabet.size (Bioseq.Database.alphabet db) + 1
  in
  ignore
    (Disk_tree.Private.write_internal_header internal ~dir_count:0 ~dir_cap);
  let buckets, short =
    Suffix_tree.Partitioned.partitions ~prefix_len:1 db
  in
  assert (short = []);
  let clustered_counter = ref 0 in
  let sink =
    Disk_tree.Private.make_sink ~layout ~internal ~leaves ~clustered_counter
  in
  let dir_next = ref 0 in
  Array.iter
    (fun positions ->
      if positions <> [] then begin
        (* Build this partition's subtree, serialize it, drop it. *)
        let mini = Suffix_tree.Tree.create db in
        List.iter (Suffix_tree.Ukkonen.insert_suffix_naive mini) positions;
        List.iter
          (fun child ->
            let entry = Disk_tree.Private.serialize_root_child sink child in
            Disk_tree.Private.backfill_directory_entry internal !dir_next entry;
            incr dir_next)
          (Suffix_tree.Tree.children (Suffix_tree.Tree.root mini))
      end)
    buckets;
  Disk_tree.Private.set_dir_count internal !dir_next;
  Disk_tree.Private.append_footers ~symbols ~internal ~leaves
