(* A SPINE index that lives in a file: build it, close the process'
   state away, reopen, query, and keep appending — the disk-resident
   deployment of the paper's Section 6.2, with real durability.

     dune exec examples/persistent_index.exe
*)

let () =
  let path = Filename.temp_file "spine_demo" ".db" in
  let rng = Bioseq.Rng.create 31 in
  let genome = Bioseq.Synthetic.genomic Bioseq.Alphabet.dna rng 60_000 in

  (* session 1: build with a modest buffer pool and close *)
  let p = Spine.Persistent.create ~frames:64 ~path Bioseq.Alphabet.dna in
  Spine.Persistent.append_seq p genome;
  Printf.printf "built %d bp into %s (%.2f B/char on disk)\n"
    (Spine.Engine.length (Spine.Persistent.engine p)) path
    (Spine.Persistent.bytes_per_char p);
  let pool_stats = Pagestore.Buffer_pool.stats (Spine.Persistent.pool p) in
  Printf.printf "construction: %d pool hits, %d misses, %d evictions\n"
    pool_stats.Pagestore.Buffer_pool.hits pool_stats.Pagestore.Buffer_pool.misses
    pool_stats.Pagestore.Buffer_pool.evictions;
  Spine.Persistent.close p;
  Printf.printf "closed; file size %d bytes (sparse)\n"
    (let ic = open_in_bin path in
     let n = in_channel_length ic in
     close_in ic; n);

  (* session 2: reopen and query without rebuilding anything *)
  let p = Spine.Persistent.open_ ~frames:64 ~path () in
  let e = Spine.Persistent.engine p in
  let probe =
    Spine.Engine.pattern e
      (Array.init 14 (fun i -> Bioseq.Packed_seq.get genome (25_000 + i)))
  in
  Printf.printf "reopened: %d bp; probe 14-mer found at %s\n"
    (Spine.Engine.length e)
    (String.concat ", "
       (List.map string_of_int (Spine.Engine.occurrences_pattern e probe)));

  (* and it is still an online index *)
  let added = "acgtacgtacgtacgt" in
  Spine.Persistent.append_string p added;
  Printf.printf "appended 16 bp online; new length %d; new content found: %b\n"
    (Spine.Engine.length e)
    (Spine.Engine.contains_pattern e
       (Option.get (Spine.Engine.pattern_of_string e added)));
  Spine.Persistent.close p;
  Sys.remove path
