(** Space accounting across index structures (Section 5's headline:
    SPINE under 12 bytes/char vs ~17 for standard suffix trees), plus
    the compaction story of Section 1 quantified on the trie itself. *)

let run (cfg : Config.t) =
  let rows =
    List.map
      (fun corpus ->
        let seq = Data.load ~scale:cfg.Config.scale corpus in
        let idx = Spine.Compact.of_seq seq in
        let b = Spine.Compact_store.space idx in
        let st = Suffix_tree.build seq in
        let sa = Suffix_array.build seq in
        [ corpus.Bioseq.Corpus.name;
          Report.Table.fmt_int (Bioseq.Packed_seq.length seq);
          Report.Table.fmt_float (Spine.Compact_store.bytes_per_char idx);
          Report.Table.fmt_float (Suffix_tree.model_bytes_per_char st);
          Report.Table.fmt_float (Suffix_array.model_bytes_per_char sa);
          Report.Table.fmt_float
            (float_of_int b.Spine.Compact_store.lt_bytes
             /. float_of_int (Bioseq.Packed_seq.length seq));
          Report.Table.fmt_float
            (float_of_int b.Spine.Compact_store.rt_bytes
             /. float_of_int (Bioseq.Packed_seq.length seq)) ])
      Bioseq.Corpus.dna
  in
  Report.Table.print
    ~title:
      (Printf.sprintf
         "Space: bytes per indexed character (scale %g)" cfg.Config.scale)
    ~headers:
      [ "Genome"; "Length"; "SPINE"; "ST (model)"; "SA (model)";
        "SPINE LT"; "SPINE RT" ]
    rows
    ~note:
      "Paper: SPINE takes up to 12 B/char vs 17 B/char for standard \
       suffix trees (about a third smaller); we measure 12.2-13.2, the \
       ~4% extra being the extrib anchor correction (DESIGN.md 1.1). \
       Suffix arrays: 6 B/char but supra-linear construction.";
  (* horizontal-compaction story on a small string: trie vs ST vs SPINE
     node counts *)
  let sample = Data.load ~scale:0.0001 Bioseq.Corpus.eco in
  let sample =
    (* keep the trie tractable *)
    Bioseq.Packed_seq.of_string Bioseq.Alphabet.dna
      (Bioseq.Packed_seq.sub_string sample ~pos:0
         ~len:(min 600 (Bioseq.Packed_seq.length sample)))
  in
  let trie = Suffix_trie.build sample in
  let st = Suffix_tree.build sample in
  let dawg = Dawg.build sample in
  let spine_nodes =
    Spine.Engine.node_count (Spine.Compact.engine (Spine.Compact.of_seq sample))
  in
  let pct_of_trie count =
    Report.Table.fmt_pct
      (float_of_int count /. float_of_int (Suffix_trie.node_count trie))
  in
  Report.Table.print
    ~title:"Horizontal vs vertical compaction (600-char sample)"
    ~headers:[ "Structure"; "Nodes"; "vs trie" ]
    [ [ "Suffix trie (Figure 1)";
        Report.Table.fmt_int (Suffix_trie.node_count trie); "100%" ]
    ; [ "Suffix tree (vertical)";
        Report.Table.fmt_int (Suffix_tree.node_count st);
        pct_of_trie (Suffix_tree.node_count st) ]
    ; [ "DAWG (horizontal, partial)";
        Report.Table.fmt_int (Dawg.state_count dawg);
        pct_of_trie (Dawg.state_count dawg) ]
    ; [ "SPINE (horizontal, complete)";
        Report.Table.fmt_int spine_nodes;
        pct_of_trie spine_nodes ]
    ]
    ~note:
      "SPINE's node count is always exactly string length + 1; the DAWG \
       (the paper's only horizontal-compaction relative, Section 7) \
       cannot reach that bound and, unlike SPINE, loses position \
       information. Paper space quotes: DAWG ~34 B/char, CDAWG ~22, \
       suffix tree ~17, SPINE under 12."
