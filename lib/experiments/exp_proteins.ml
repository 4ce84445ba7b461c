(** Section 5.2 — protein strings.  The paper reports that proteomes
    (alphabet size 20, 5-bit labels) behave like genomes: label values
    even smaller, under 30 % of nodes with downstream edges, linear
    construction scaling. *)

let run (cfg : Config.t) =
  (* one fixed query for all proteomes: the paper observes that search
     times are independent of the data string length *)
  let fixed_query =
    let base = Data.load ~scale:cfg.Config.scale Bioseq.Corpus.eco_r in
    let rng = Bioseq.Rng.create 4242 in
    let out =
      Bioseq.Packed_seq.create ~capacity:20_000 Bioseq.Alphabet.protein
    in
    for i = 0 to 19_999 do
      let sym =
        Bioseq.Packed_seq.get base (i mod Bioseq.Packed_seq.length base)
      in
      let sym =
        if Bioseq.Rng.float rng 1.0 < 0.3 then Bioseq.Rng.int rng 20 else sym
      in
      Bioseq.Packed_seq.append out sym
    done;
    out
  in
  let rows =
    List.map
      (fun corpus ->
        let seq = Data.load ~scale:cfg.Config.scale corpus in
        let n = Bioseq.Packed_seq.length seq in
        let idx, secs =
          Xutil.Stopwatch.time (fun () -> Spine.Compact.of_seq seq)
        in
        let e = Spine.Compact.engine idx in
        let m = Spine.Engine.label_maxima e in
        let dist = Spine.Engine.rib_distribution e in
        let total_nodes = Array.fold_left ( + ) 0 dist in
        let with_ribs = total_nodes - dist.(0) in
        let _, search_secs =
          Xutil.Stopwatch.median_of 3 (fun () ->
              Spine.Engine.maximal_matches e ~threshold:8 fixed_query)
        in
        [ corpus.Bioseq.Corpus.name;
          Report.Table.fmt_int n;
          Report.Table.fmt_float secs;
          Report.Table.fmt_float (secs /. float_of_int n *. 1e6) ^ " us/char";
          Report.Table.fmt_float ~decimals:3 search_secs;
          Report.Table.fmt_int
            (max m.Spine.Engine.max_pt m.Spine.Engine.max_lel);
          Report.Table.fmt_pct
            (float_of_int with_ribs /. float_of_int total_nodes);
          Report.Table.fmt_float (Spine.Compact_store.bytes_per_char idx) ])
      Bioseq.Corpus.proteins
  in
  Report.Table.print
    ~title:
      (Printf.sprintf "Proteins (Section 5.2), scale %g" cfg.Config.scale)
    ~headers:
      [ "Proteome"; "Length"; "Build (s)"; "Rate"; "Search (s)"; "Max label";
        "Nodes w/ ribs"; "Bytes/char" ]
    rows
    ~note:
      "Shape check: construction scales linearly (flat us/char); the \
       fixed-query search time is independent of the data string length \
       (paper Section 6.2); label maxima small; under ~30% of nodes \
       carry downstream edges. Bytes/char is higher than DNA because \
       the sigma=20 alphabet widens RT4 rows (the paper's node-size \
       discussion is DNA-specific)."
