(* Disk-resident SPINE: build an index through a bounded buffer pool
   over a simulated synchronous disk (the paper's Section 6.2 set-up)
   and study the I/O behaviour of construction and search.

     dune exec examples/disk_index.exe
*)

let pr_device label d =
  let s = Pagestore.Device.stats d in
  Printf.printf "  %-14s %6d reads  %6d writes  (%d sequential)  ~%.2f s simulated\n"
    label s.Pagestore.Device.reads s.Pagestore.Device.writes
    s.Pagestore.Device.sequential (s.Pagestore.Device.elapsed_us /. 1e6)

let pr_pool label p =
  let s = Pagestore.Buffer_pool.stats p in
  let total = s.Pagestore.Buffer_pool.hits + s.Pagestore.Buffer_pool.misses in
  Printf.printf "  %-14s %d hits / %d accesses (%.1f%% hit rate), %d evictions\n"
    label s.Pagestore.Buffer_pool.hits total
    (100.0 *. float_of_int s.Pagestore.Buffer_pool.hits
     /. float_of_int (max 1 total))
    s.Pagestore.Buffer_pool.evictions

let () =
  let rng = Bioseq.Rng.create 7 in
  let genome = Bioseq.Synthetic.genomic Bioseq.Alphabet.dna rng 120_000 in
  Printf.printf "genome: %d bp\n" (Bioseq.Packed_seq.length genome);

  (* a pool holding roughly a third of the Link Table, with the paper's
     pin-the-top policy *)
  let lt_pages =
    Bioseq.Packed_seq.length genome * Spine.Compact_store.lt_entry_bytes / 4096
  in
  let config =
    { Spine.Disk.default_config with
      Spine.Disk.frames = max 16 (lt_pages / 3);
      pin_top_lt_pages = max 4 (lt_pages / 10) }
  in
  Printf.printf "buffer pool: %d frames of %d B, top %d LT pages pinned\n"
    config.Spine.Disk.frames config.Spine.Disk.page_size
    config.Spine.Disk.pin_top_lt_pages;

  let d = Spine.Disk.build ~config genome in
  print_endline "construction I/O:";
  pr_device "device" d.Spine.Disk.device;
  pr_pool "pool" d.Spine.Disk.pool;

  (* cold search: drop the pool, then query *)
  Spine.Disk.reset_io d;
  let pattern =
    Array.init 12 (fun i -> Bioseq.Packed_seq.get genome (50_000 + i))
  in
  let e = Spine.Disk.engine d in
  let occs = Spine.Engine.occurrences_pattern e (Spine.Engine.pattern e pattern) in
  Printf.printf "cold search for a 12-mer: %d occurrence(s)\n"
    (List.length occs);
  print_endline "search I/O:";
  pr_device "device" d.Spine.Disk.device;
  pr_pool "pool" d.Spine.Disk.pool;
  Printf.printf "simulated search latency: %.3f s\n"
    (Spine.Disk.simulated_seconds d)
