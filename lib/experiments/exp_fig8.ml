(** Figure 8 — distribution of link destinations over the backbone.
    The paper observes that links point overwhelmingly to the top of
    the backbone, with a monotone decay — the basis for the "pin the
    top of the Link Table" buffering policy. *)

let genomes = [ "ECO"; "CEL"; "HC21" ]

let run (cfg : Config.t) =
  List.iter
    (fun name ->
      let corpus = Bioseq.Corpus.find_exn name in
      let seq = Data.load ~scale:cfg.Config.scale corpus in
      let e = Spine.Compact.engine (Spine.Compact.of_seq seq) in
      let hist = Spine.Engine.link_histogram e ~buckets:cfg.Config.buckets in
      let total = Array.fold_left ( + ) 0 hist in
      let series =
        Array.to_list
          (Array.mapi
             (fun b c ->
               ( Printf.sprintf "%2d-%d%%" (b * 100 / cfg.Config.buckets)
                   ((b + 1) * 100 / cfg.Config.buckets),
                 100.0 *. float_of_int c /. float_of_int total ))
             hist)
      in
      Report.Bar.print
        ~title:
          (Printf.sprintf
             "Figure 8: Link destination distribution, %s (scale %g)"
             name cfg.Config.scale)
        ~unit_label:"% of links" series;
      (* monotone-decay shape check *)
      let decays = ref true in
      for b = 1 to Array.length hist - 1 do
        if hist.(b) > hist.(b - 1) then decays := false
      done;
      Report.Say.printf "  monotone decay along the backbone: %s\n"
        (if !decays then "yes" else "no (minor local bumps)"))
    genomes
