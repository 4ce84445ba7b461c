(* Online construction and prefix-partitionability — the two structural
   properties the paper highlights in Section 1: SPINE grows only at
   the tail, so (a) the index is usable after every appended character
   and (b) the index of a prefix is literally the initial fragment of
   the index. Also saves the index to a file and loads it back.

     dune exec examples/prefix_partition.exe
*)

let () =
  let rng = Bioseq.Rng.create 5 in
  let dna = Bioseq.Alphabet.dna in
  let stream = Bioseq.Synthetic.genomic dna rng 50_000 in

  (* online: feed characters one by one, querying as we go *)
  let idx = Spine.Compact.create dna in
  let e = Spine.Compact.engine idx in
  let probe =
    Spine.Engine.pattern e
      (Array.init 8 (fun i -> Bioseq.Packed_seq.get stream i))
  in
  let first_hit = ref (-1) in
  Bioseq.Packed_seq.iteri stream ~f:(fun pos code ->
      Spine.Compact.append idx code;
      if !first_hit < 0 && pos >= 7 then
        if Spine.Engine.contains_pattern e probe then first_hit := pos);
  Printf.printf
    "online build of %d bp; the first 8-mer became queryable after \
     character %d (no rebuild, no batch step)\n"
    (Spine.Engine.length e) !first_hit;

  (* prefix partitioning: the index of the first half is the first half
     of the index *)
  let half = Spine.Engine.length e / 2 in
  let prefix_seq =
    Bioseq.Packed_seq.of_string dna
      (Bioseq.Packed_seq.sub_string stream ~pos:0 ~len:half)
  in
  let prefix_idx = Spine.Compact.of_seq prefix_seq in
  let agree = ref true in
  for node = 1 to half do
    let link t = Spine.Compact_store.(link_dest t node, link_lel t node) in
    if link prefix_idx <> link idx then agree := false
  done;
  Printf.printf
    "links of the %d-node prefix index == first %d links of the full \
     index: %b\n"
    half half !agree;

  (* a suffix tree cannot be truncated this way: node creation order is
     not logical order. SPINE's property falls out of tail-only growth. *)

  (* persistence round-trip: the in-memory tables go to an index file
     as page runs and load back as a page-by-page copy *)
  let tmp = Filename.temp_file "spine" ".idx" in
  Spine.Persistent.close (Spine.Persistent.of_compact ~path:tmp idx);
  let loaded = Spine.Persistent.load ~path:tmp in
  let pat =
    Spine.Engine.pattern e
      (Array.init 10 (fun i -> Bioseq.Packed_seq.get stream (1000 + i)))
  in
  Printf.printf "saved to %s; the reloaded index (%.2f bytes/char) \
                 agrees on a 10-mer query: %b\n"
    tmp
    (Spine.Compact_store.bytes_per_char loaded)
    (Spine.Engine.occurrences_pattern e pat
     = Spine.Engine.occurrences_pattern (Spine.Compact.engine loaded) pat);
  Sys.remove tmp
