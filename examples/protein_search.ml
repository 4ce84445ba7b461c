(* Protein strings (Section 5.2): index several synthetic proteomes in
   ONE generalized SPINE index and search motifs across all of them.

     dune exec examples/protein_search.exe
*)

let () =
  let rng = Bioseq.Rng.create 99 in
  let protein = Bioseq.Alphabet.protein in

  (* three small synthetic proteomes *)
  let make n = Bioseq.Synthetic.genomic protein (Bioseq.Rng.split rng) n in
  let proteomes =
    [ ("ecoli-like", make 30_000);
      ("yeast-like", make 50_000);
      ("fly-like", make 40_000) ]
  in

  let g = Spine.Generalized.create protein in
  List.iter
    (fun (name, seq) -> ignore (Spine.Generalized.add g ~name seq))
    proteomes;
  Printf.printf "generalized index over %d proteomes, %d residues total\n"
    (Spine.Generalized.count g)
    (Spine.Engine.length (Spine.Generalized.engine g));

  (* pull a real motif out of one proteome and search across all *)
  let _, yeast = List.nth proteomes 1 in
  let motif = Array.init 6 (fun i -> Bioseq.Packed_seq.get yeast (12_345 + i)) in
  let motif_str =
    String.init 6 (fun i -> Bioseq.Alphabet.decode protein motif.(i))
  in
  let hits =
    Spine.Generalized.occurrences g
      (Spine.Engine.pattern (Spine.Generalized.engine g) motif)
  in
  Printf.printf "motif %s occurs %d time(s):\n" motif_str (List.length hits);
  List.iteri
    (fun i { Spine.Generalized.string_id; pos } ->
      if i < 10 then
        Printf.printf "  %-12s position %d\n"
          (Spine.Generalized.name g string_id) pos)
    hits;

  (* Section 5.2's structural observations on protein strings *)
  let e = Spine.Generalized.engine g in
  let m = Spine.Engine.label_maxima e in
  let dist = Spine.Engine.rib_distribution e in
  let total = Array.fold_left ( + ) 0 dist in
  Printf.printf
    "label maxima: PT %d, LEL %d (far below the 2-byte limit)\n"
    m.Spine.Engine.max_pt m.Spine.Engine.max_lel;
  Printf.printf "nodes with downstream edges: %.1f%% (paper: under 30%%)\n"
    (100.0 *. float_of_int (total - dist.(0)) /. float_of_int total)
