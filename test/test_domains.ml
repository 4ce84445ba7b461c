(* Two domains share one post-build store: the query surface that
   spine-lint --domains certifies must actually be reentrant — every
   answer computed in a spawned domain has to equal the single-domain
   oracle's, with no cross-domain interference through matcher state,
   telemetry or trace.  This is the runtime half of the static
   certification. *)

let byte = Bioseq.Alphabet.byte

(* a deterministic text plus patterns that are present, absent and
   partially present *)
let text =
  let rng = Bioseq.Rng.create 20260808 in
  Oracles.random_string rng 4 600

let patterns =
  let rng = Bioseq.Rng.create 95014 in
  List.init 12 (fun i ->
      if i mod 3 = 0 then
        Oracles.random_string rng 4 (1 + Bioseq.Rng.int rng 6)
      else
        let len = 1 + Bioseq.Rng.int rng 8 in
        let start = Bioseq.Rng.int rng (String.length text - len) in
        String.sub text start len)

let query = Oracles.random_string (Bioseq.Rng.create 777) 4 50

(* run the whole read surface once; the result is a plain comparable
   value so domain answers can be checked against the oracle.  [recode]
   maps the a..d test strings into the engine's alphabet. *)
let snapshot recode e =
  let ms_seq =
    Bioseq.Packed_seq.of_string (Spine.Engine.alphabet e) (recode query)
  in
  let ms, stats = Spine.Engine.matching_statistics e ms_seq in
  List.map
    (fun p ->
      let p = recode p in
      let codes = Option.get (Spine.Engine.encode e p) in
      ( Codes.contains_string e p,
        Codes.occurrences e codes |> List.sort compare,
        Codes.first_occurrence e codes ))
    patterns
  |> fun per_pattern ->
  ( per_pattern,
    Array.to_list ms,
    stats.Spine.Engine.nodes_checked,
    Spine.Engine.length e,
    Spine.Engine.node_count e )

let check_backend ?(recode = Fun.id) name e =
  let oracle = snapshot recode e in
  let domains =
    List.init 2 (fun _ -> Domain.spawn (fun () -> snapshot recode e))
  in
  List.iteri
    (fun i d ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: domain %d answers equal the oracle" name i)
        true
        (Domain.join d = oracle))
    domains

(* a multi-string index over the text's two halves, as DNA *)
let test_generalized () =
  let recode = String.map (fun c -> "acgt".[Char.code c - Char.code 'a']) in
  let dna s = Bioseq.Packed_seq.of_string Bioseq.Alphabet.dna (recode s) in
  let g = Spine.Generalized.create Bioseq.Alphabet.dna in
  let half = String.length text / 2 in
  ignore (Spine.Generalized.add g (dna (String.sub text 0 half)));
  ignore
    (Spine.Generalized.add g
       (dna (String.sub text half (String.length text - half))));
  check_backend ~recode "generalized" (Spine.Generalized.engine g)

let test_compact () =
  let seq = Bioseq.Packed_seq.of_string byte text in
  let compact = Spine.Compact.of_seq seq in
  check_backend "compact" (Spine.Compact.engine compact)

let suite =
  [ Alcotest.test_case "generalized index shared across two domains" `Quick
      test_generalized;
    Alcotest.test_case "compact store shared across two domains" `Quick
      test_compact ]
