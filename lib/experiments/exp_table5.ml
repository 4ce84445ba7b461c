(** Table 5 — in-memory substring matching times: find all maximal
    matching substrings (with repetitions) between genome pairs.
    Paper: SPINE takes ~30 % less time than ST, attributed to the
    set-basis suffix processing quantified in Table 6. *)

let pairs =
  [ ("ECO", "CEL"); ("CEL", "HC21"); ("HC21", "CEL"); ("HC21", "HC19");
    ("HC19", "HC21") ]

let paper = [ (20, 16); (45, 31); (26, 17); (83, 54); (-1, 30) ]

let corpus name =
  match Bioseq.Corpus.find name with
  | Some c -> c
  | None -> invalid_arg ("unknown corpus " ^ name)

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
        let threshold = cfg.Config.threshold in
        let (spine_matches, _), spine_time =
          Xutil.Stopwatch.time (fun () ->
              Spine.Engine.maximal_matches spine ~threshold query)
        in
        let (st_matches, _), st_time =
          Xutil.Stopwatch.time (fun () ->
              Suffix_tree.maximal_matches st ~threshold query)
        in
        let n_spine = List.length spine_matches in
        let n_st = List.length st_matches in
        if n_spine <> n_st then
          Report.Say.printf "  WARNING: match count mismatch %d vs %d\n" n_spine n_st;
        [ dname; qname;
          Report.Table.fmt_float st_time;
          Report.Table.fmt_float spine_time;
          Report.Table.fmt_pct (1.0 -. (spine_time /. st_time));
          string_of_int n_spine;
          (if p_st < 0 then "-/" ^ string_of_int p_spine
           else Printf.sprintf "%d/%d" p_st p_spine) ])
      pairs paper
  in
  Report.Table.print
    ~title:
      (Printf.sprintf
         "Table 5: Substring matching times, in memory (scale %g, \
          threshold %d)" cfg.Config.scale cfg.Config.threshold)
    ~headers:
      [ "Data"; "Query"; "ST (s)"; "SPINE (s)"; "SPINE saves"; "matches";
        "Paper ST/SPINE (s)" ]
    rows
    ~note:
      "Shape check: SPINE beats ST on every pair, by roughly the \
       paper's ~30% margin. (Paper row '-' = ST exceeded memory.)"
