(** Table 4 — rib distribution across nodes: percentage of nodes with
    1, 2, 3 and 4 downstream edges (ribs + extrib). The paper's
    observation that only ~30-35 % of nodes carry any downstream edge is
    what justifies moving ribs out of the Link Table into separate,
    fanout-segregated Rib Tables. *)

let paper =
  [ ("ECO", (15, 9, 6, 4, 33)); ("CEL", (15, 8, 6, 4, 33));
    ("HC21", (14, 8, 6, 4, 32)); ("HC19", (13, 7, 5, 3, 28)) ]

let run (cfg : Config.t) =
  let rows =
    List.map
      (fun corpus ->
        let seq = Data.load ~scale:cfg.Config.scale corpus in
        let e = Spine.Compact.engine (Spine.Compact.of_seq seq) in
        let dist = Spine.Engine.rib_distribution e in
        let total_nodes = Array.fold_left ( + ) 0 dist in
        let pct f =
          let c =
            if f < 4 then dist.(f)
            else Array.fold_left ( + ) 0 (Array.sub dist 4 (Array.length dist - 4))
          in
          100.0 *. float_of_int c /. float_of_int total_nodes
        in
        let total = pct 1 +. pct 2 +. pct 3 +. pct 4 in
        let p1, p2, p3, p4, pt = List.assoc corpus.Bioseq.Corpus.name paper in
        [ corpus.Bioseq.Corpus.name;
          Report.Table.fmt_pct (pct 1 /. 100.0);
          Report.Table.fmt_pct (pct 2 /. 100.0);
          Report.Table.fmt_pct (pct 3 /. 100.0);
          Report.Table.fmt_pct (pct 4 /. 100.0);
          Report.Table.fmt_pct (total /. 100.0);
          Printf.sprintf "%d/%d/%d/%d=%d%%" p1 p2 p3 p4 pt ])
      Bioseq.Corpus.dna
  in
  Report.Table.print
    ~title:
      (Printf.sprintf "Table 4: Rib distribution across nodes (scale %g)"
         cfg.Config.scale)
    ~headers:[ "Genome"; "1"; "2"; "3"; "4"; "Total"; "Paper" ]
    rows
    ~note:
      "Shape check: percentages decay with fanout and the total stays \
       around 30%, decreasing for the more repetitive human chromosomes."
