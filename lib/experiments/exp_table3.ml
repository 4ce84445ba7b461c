(** Table 3 — maximum numeric label values (PT/LEL/PRT) per genome.
    The paper's point: even for human chromosomes the maxima stay far
    below 65536, so 2-byte label fields plus a small overflow table
    suffice. *)

let paper = [ ("ECO", 1785); ("CEL", 8187); ("HC21", 21844); ("HC19", 12371) ]

let run (cfg : Config.t) =
  let rows =
    List.map
      (fun corpus ->
        let seq = Data.load ~scale:cfg.Config.scale corpus in
        let e = Spine.Compact.engine (Spine.Compact.of_seq seq) in
        let m = Spine.Engine.label_maxima e in
        let measured = max m.Spine.Engine.max_pt m.Spine.Engine.max_lel in
        [ corpus.Bioseq.Corpus.name;
          Report.Table.fmt_int (Bioseq.Packed_seq.length seq);
          Report.Table.fmt_int measured;
          Report.Table.fmt_int m.Spine.Engine.max_pt;
          Report.Table.fmt_int m.Spine.Engine.max_lel;
          Report.Table.fmt_int m.Spine.Engine.max_prt;
          Report.Table.fmt_int
            (List.assoc corpus.Bioseq.Corpus.name paper) ])
      Bioseq.Corpus.dna
  in
  Report.Table.print
    ~title:
      (Printf.sprintf
         "Table 3: Maximum label values (synthetic genomes at scale %g)"
         cfg.Config.scale)
    ~headers:
      [ "Genome"; "Length"; "Max Value"; "max PT"; "max LEL"; "max PRT";
        "Paper (full length)" ]
    rows
    ~note:
      "Shape check: maxima are orders of magnitude below 65536 and grow \
       sublinearly with string length, as in the paper."
