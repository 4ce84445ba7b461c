(** Table 6 — number of nodes checked while matching (in thousands).
    This is the mechanism behind Table 5: a SPINE link dispatches a
    whole set of suffixes per check, a suffix link one suffix per
    check. *)

let pairs = [ ("CEL", "ECO"); ("HC21", "ECO"); ("HC21", "CEL") ]

let paper = [ (3515, 2119); (3514, 2163); (15077, 8701) ]

let corpus name = Bioseq.Corpus.find_exn name

let run (cfg : Config.t) =
  let rows =
    List.map2
      (fun (dname, qname) (p_st, p_spine) ->
        let data = Data.load ~scale:cfg.Config.scale (corpus dname) in
        let query =
          Data.homologous_query ~scale:cfg.Config.scale
            ~data_corpus:(corpus dname) (corpus qname)
        in
        let spine = Spine.Compact.engine (Spine.Compact.of_seq data) in
        let st = Suffix_tree.build data in
        let _, spine_stats =
          Spine.Engine.maximal_matches spine
            ~threshold:cfg.Config.threshold query
        in
        let _, st_stats =
          Suffix_tree.maximal_matches st ~threshold:cfg.Config.threshold query
        in
        [ dname; qname;
          Report.Table.fmt_int (st_stats.Suffix_tree.nodes_checked / 1000);
          Report.Table.fmt_int (spine_stats.Spine.Engine.nodes_checked / 1000);
          Report.Table.fmt_int (st_stats.Suffix_tree.suffixes_checked / 1000);
          Report.Table.fmt_int
            (spine_stats.Spine.Engine.suffixes_checked / 1000);
          Printf.sprintf "%d/%d" p_st p_spine ])
      pairs paper
  in
  Report.Table.print
    ~title:
      (Printf.sprintf "Table 6: Nodes checked during matching, in 1000s \
                       (scale %g)" cfg.Config.scale)
    ~headers:
      [ "Data"; "Query"; "ST nodes"; "SPINE nodes"; "ST suffixes";
        "SPINE suffixes"; "Paper ST/SPINE" ]
    rows
    ~note:
      "Shape check: SPINE checks substantially fewer nodes and far \
       fewer suffix candidates (set-basis processing, Section 4.1)."
