(* Quickstart: build a SPINE index over a DNA string, run the three
   basic query types through the engine, and peek at the structure.

     dune exec examples/quickstart.exe
*)

let () =
  (* the paper's running example string *)
  let dna = Bioseq.Alphabet.dna in
  let idx = Spine.Compact.of_string dna "aaccacaaca" in

  (* every query goes through the capability-aware engine handle;
     Persistent.engine / Disk.engine answer the same calls *)
  let e = Spine.Compact.engine idx in
  Printf.printf "engine backend = %s\n" (Spine.Engine.backend e);
  Printf.printf "indexed %d characters -> %d backbone nodes\n"
    (Spine.Engine.length e) (Spine.Engine.node_count e);

  (* patterns are packed once, at the engine edge *)
  let pattern s = Option.get (Spine.Engine.pattern_of_string e s) in

  (* 1. substring membership: SPINE answers without the original text *)
  List.iter
    (fun pat ->
      Printf.printf "contains %-6s = %b\n" pat
        (Spine.Engine.contains_pattern e (pattern pat)))
    [ "cac"; "acca"; "accaa" (* the paper's false-positive example *) ];

  (* 2. all occurrences (the target-node-buffer scan of Section 4) *)
  let occs = Spine.Engine.occurrences_pattern e (pattern "ac") in
  Printf.printf "occurrences of \"ac\" start at: %s\n"
    (String.concat ", " (List.map string_of_int occs));

  (* 3. maximal matches against another string *)
  let query = Bioseq.Packed_seq.of_string dna "ttaccacaat" in
  let matches, stats = Spine.Engine.maximal_matches e ~threshold:3 query in
  List.iter
    (fun { Spine.Engine.query_end; length; data_ends } ->
      Printf.printf
        "match of length %d ending at query %d, data ends: %s\n"
        length query_end
        (String.concat ", " (List.map string_of_int data_ends)))
    matches;
  Printf.printf "(%d nodes checked, %d suffix-set dispatches)\n"
    stats.Spine.Engine.nodes_checked stats.Spine.Engine.suffixes_checked;

  (* structure peek: the backward link of the last node *)
  let node = Spine.Engine.length e in
  let dest = Spine.Compact_store.link_dest idx node
  and lel = Spine.Compact_store.link_lel idx node in
  Printf.printf
    "link of the tail node: the last %d characters first occurred ending \
     at node %d\n"
    lel dest;

  (* many patterns, ONE shared deferred backbone scan *)
  let codes s = Option.get (Spine.Engine.encode e s) in
  let items = Spine.Engine.run_batch e [ codes "ac"; codes "ca" ] in
  List.iter
    (fun { Spine.Engine.count; positions; _ } ->
      Printf.printf "batched pattern: %d occurrence(s) at %s\n" count
        (String.concat ", " (List.map string_of_int positions)))
    items;
  assert ((List.hd items).Spine.Engine.positions = [ 1; 4; 7 ]);

  (* incremental cursor (works on any backend, including paged ones) *)
  let c = Spine.Engine.cursor e in
  assert (c.Spine.Engine.advance_char 'c');
  Printf.printf "cursor at \"c\": occurrences at %s\n"
    (String.concat ", "
       (List.map string_of_int (c.Spine.Engine.occurrences ())));
  assert (c.Spine.Engine.occurrences () = [ 2; 3; 5; 8 ])
