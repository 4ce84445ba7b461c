(** Figure 6 — in-memory index construction times, SPINE vs suffix
    tree, plus the memory-budget observation: under the paper's 1 GB
    budget the suffix tree could not index HC19 while SPINE could
    (SPINE handles ~30 % more string for a given budget).

    The budget is scaled with the strings so the OOM crossover lands on
    the same genome as in the paper. *)

let paper_budget_bytes = 1024 * 1024 * 1024

let run (cfg : Config.t) =
  let budget =
    float_of_int paper_budget_bytes *. cfg.Config.scale
  in
  let rows =
    List.map
      (fun corpus ->
        let seq = Data.load ~scale:cfg.Config.scale corpus in
        let n = Bioseq.Packed_seq.length seq in
        let spine_idx, spine_time =
          Xutil.Stopwatch.time (fun () -> Spine.Compact.of_seq seq)
        in
        (* peak construction footprint: Ukkonen grows a node pool of a
           priori unknown size (up to 2n) geometrically, so its peak is
           well above the final structure; SPINE's append-only Link
           Table dominates its footprint and grows smoothly. *)
        let spine_bytes =
          Spine.Compact_store.bytes_per_char spine_idx *. float_of_int n *. 1.05
        in
        let st, st_time =
          Xutil.Stopwatch.time (fun () -> Suffix_tree.build seq)
        in
        let st_bytes =
          Suffix_tree.model_bytes_per_char st *. float_of_int n *. 1.25
        in
        let fits b = if b <= budget then "fits" else "OOM" in
        ( corpus.Bioseq.Corpus.name, n, spine_time, st_time,
          spine_bytes, st_bytes, fits spine_bytes, fits st_bytes ))
      Bioseq.Corpus.dna
  in
  Report.Bar.print_grouped
    ~title:
      (Printf.sprintf
         "Figure 6: In-memory construction times (scale %g)" cfg.Config.scale)
    ~unit_label:"s" ~group_names:("SPINE", "ST")
    (List.map (fun (name, _, st', st, _, _, _, _) -> (name, st', st)) rows);
  Report.Table.print
    ~headers:
      [ "Genome"; "Length"; "SPINE (s)"; "ST (s)"; "SPINE MB"; "ST MB";
        "SPINE@budget"; "ST@budget" ]
    (List.map
       (fun (name, n, t1, t2, b1, b2, f1, f2) ->
         [ name;
           Report.Table.fmt_int n;
           Report.Table.fmt_float t1;
           Report.Table.fmt_float t2;
           Report.Table.fmt_float (b1 /. 1e6);
           Report.Table.fmt_float (b2 /. 1e6);
           f1; f2 ])
       rows)
    ~note:
      (Printf.sprintf
         "Budget = 1 GB scaled by %g = %.0f MB. Paper: construction \
          within ~2 s/Mbp for both, SPINE marginally faster; ST runs out \
          of memory on HC19."
         cfg.Config.scale (budget /. 1e6))
