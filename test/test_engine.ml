(* The capability-aware Engine layer: every backend packed as an
   Engine.t must answer the whole query surface identically — the
   differential harness that justifies defining the API once. *)

module E = Spine.Engine
module Compact_valid = Spine.Validate.Make (Spine.Compact_store)
module Paged_valid = Spine.Validate.Make (Spine.Paged_store.P)

let byte = Bioseq.Alphabet.byte

let codes_of s = Array.init (String.length s) (fun i -> Char.code s.[i])

(* Build all three backends over [s], check each store's invariants
   (the persistent one again after a close and reopen), pack each as
   an engine, run [f] over the (name, engine) list, then tear the
   persistent file down. *)
let with_engines_of alphabet s f =
  let seq = Bioseq.Packed_seq.of_string alphabet s in
  let compact = Spine.Compact.of_seq seq in
  let disk = Spine.Disk.build seq in
  let path = Filename.temp_file "spine_engine" ".db" in
  let p = Spine.Persistent.create ~path alphabet in
  Spine.Persistent.append_string p s;
  Codes.valid (Compact_valid.check compact);
  Codes.valid (Paged_valid.check disk.Spine.Disk.store);
  Codes.valid (Paged_valid.check (Spine.Persistent.store p));
  Spine.Persistent.close p;
  let p = Spine.Persistent.open_ ~path () in
  Codes.valid (Paged_valid.check (Spine.Persistent.store p));
  Fun.protect
    ~finally:(fun () ->
      (try Spine.Persistent.close p with Spine_error.Error (Spine_error.Closed _) -> ());
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      f
        [ ("compact", Spine.Compact.engine compact)
        ; ("persistent", Spine.Persistent.engine p)
        ; ("disk", Spine.Disk.engine disk) ])

let with_engines s f = with_engines_of byte s f

let test_caps () =
  with_engines "aaccacaaca" (fun engines ->
      List.iter
        (fun (name, e) ->
          Alcotest.(check string) "backend name" name (Spine.Engine.backend e);
          Alcotest.(check int) (name ^ " length") 10 (Spine.Engine.length e))
        engines)

(* Random sequences and patterns: contains / occurrences /
   matching_statistics must agree across all three engines and with the
   brute-force oracle. *)
let test_differential () =
  let rng = Bioseq.Rng.create 20260805 in
  for _ = 1 to 8 do
    let s = Oracles.random_string rng 3 (60 + Bioseq.Rng.int rng 180) in
    let patterns =
      (* substrings of s (present) plus random ones (often absent) *)
      List.init 6 (fun _ ->
          let len = 1 + Bioseq.Rng.int rng 8 in
          let start = Bioseq.Rng.int rng (String.length s - len) in
          String.sub s start len)
      @ List.init 5 (fun _ ->
            Oracles.random_string rng 4 (1 + Bioseq.Rng.int rng 6))
    in
    let query = Oracles.random_string rng 3 40 in
    with_engines s (fun engines ->
        List.iter
          (fun (name, e) ->
            List.iter
              (fun pat ->
                let label what =
                  Printf.sprintf "%s %s %S in %S" name what pat s
                in
                Alcotest.(check bool) (label "contains")
                  (Oracles.contains s pat) (Codes.contains_string e pat);
                Alcotest.(check (list int)) (label "occurrences")
                  (Oracles.occurrences s pat)
                  (Codes.occurrences e (codes_of pat));
                Alcotest.(check (option int)) (label "first")
                  (Oracles.first_occurrence s pat)
                  (Codes.first_occurrence e (codes_of pat)))
              patterns;
            let ms, _ =
              Spine.Engine.matching_statistics e
                (Bioseq.Packed_seq.of_string byte query)
            in
            Alcotest.(check (array int))
              (Printf.sprintf "%s matching_statistics" name)
              (Oracles.matching_statistics s query) ms)
          engines)
  done

(* run_batch: one shared scan must give exactly the per-pattern
   results, in input order, including absent patterns. *)
let test_run_batch () =
  let s = "aaccacaacaccaacacaac" in
  let pats = [ "ac"; "caac"; "zz"; "a"; "ccc"; "aaccacaacaccaacacaac" ] in
  with_engines s (fun engines ->
      List.iter
        (fun (name, e) ->
          let items = Spine.Engine.run_batch e (List.map codes_of pats) in
          Alcotest.(check int) (name ^ " item count") (List.length pats)
            (List.length items);
          List.iter2
            (fun pat { Spine.Engine.pattern; count; positions } ->
              Alcotest.(check (array int)) (name ^ " pattern echo")
                (codes_of pat) pattern;
              let expect = Oracles.occurrences s pat in
              Alcotest.(check (list int))
                (Printf.sprintf "%s batch occurrences of %S" name pat)
                expect positions;
              Alcotest.(check int) (name ^ " count") (List.length expect)
                count)
            pats items)
        engines)

(* The raw deferred-scan machinery answers through every engine, and
   run_batch's shared scan equals one query per pattern. *)
let test_occurrences_batch_exposed () =
  with_engines "aaccacaaca" (fun engines ->
      let reference = snd (List.hd engines) in
      let pats = List.map codes_of [ "ac"; "aa"; "zz"; "caca" ] in
      List.iter
        (fun (name, e) ->
          (* "ac": first occurrence starts at 1, so its end node is 3;
             the deferred scan must surface end nodes 3, 6, 9. *)
          let buffers = E.occurrences_batch e [| (3, 2) |] in
          Alcotest.(check (list int)) (name ^ " batch ends") [ 3; 6; 9 ]
            (Xutil.Int_vec.fold buffers.(0) ~init:[] ~f:(fun acc e -> e :: acc)
            |> List.rev);
          Alcotest.(check (list (list int))) (name ^ " run_batch")
            (List.map (Codes.occurrences reference) pats)
            (Codes.occurrences_many e pats))
        engines)

(* Matching and structure statistics agree across all three engines:
   maximal matches (deferred and immediate scans) against the oracle,
   and every statistic against the in-memory compact engine. *)
let test_structure_parity () =
  let rng = Bioseq.Rng.create 20261017 in
  for _ = 1 to 6 do
    let s = Oracles.random_string rng 3 (60 + Bioseq.Rng.int rng 180) in
    let q = Oracles.random_string rng 3 50 in
    let query = Bioseq.Packed_seq.of_string byte q in
    let threshold = 2 + Bioseq.Rng.int rng 3 in
    let expected = Oracles.maximal_matches s q threshold in
    with_engines s (fun engines ->
        let reference = snd (List.hd engines) in
        let label name what = Printf.sprintf "%s %s of %S" name what s in
        List.iter
          (fun (name, e) ->
            List.iter
              (fun immediate ->
                let got, _ = E.maximal_matches ~immediate e ~threshold query in
                Alcotest.(check (list (triple int int (list int))))
                  (label name
                     (if immediate then "immediate maximal_matches"
                      else "maximal_matches"))
                  expected
                  (List.map
                     (fun { E.query_end; length; data_ends } ->
                       (query_end, length, data_ends))
                     got))
              [ false; true ];
            let lm e =
              let m = E.label_maxima e in
              (m.E.max_pt, m.E.max_lel, m.E.max_prt)
            in
            Alcotest.(check (triple int int int)) (label name "label_maxima")
              (lm reference) (lm e);
            let ec e =
              let c = E.edge_counts e in
              [ c.E.vertebras; c.E.ribs; c.E.extribs; c.E.links ]
            in
            Alcotest.(check (list int)) (label name "edge_counts")
              (ec reference) (ec e);
            Alcotest.(check (array int)) (label name "rib_distribution")
              (E.rib_distribution reference) (E.rib_distribution e);
            Alcotest.(check (array int)) (label name "link_histogram")
              (E.link_histogram reference ~buckets:8)
              (E.link_histogram e ~buckets:8))
          engines)
  done

(* Engine cursors over compact / persistent / disk: random
   advance/drop_front walks checked against an explicit window model. *)
let test_engine_cursors () =
  let rng = Bioseq.Rng.create 4242 in
  for _ = 1 to 6 do
    let s = Oracles.random_string rng 3 (30 + Bioseq.Rng.int rng 80) in
    with_engines s (fun engines ->
        List.iter
          (fun (name, e) ->
            let c = Spine.Engine.cursor e in
            let buf = ref "" in
            let check () =
              Alcotest.(check int) (name ^ " cursor length")
                (String.length !buf) (c.Spine.Engine.length ());
              if !buf = "" then
                Alcotest.(check int) (name ^ " cursor root") 0
                  (c.Spine.Engine.node ())
              else begin
                Alcotest.(check (option int)) (name ^ " cursor first")
                  (Oracles.first_occurrence s !buf)
                  (c.Spine.Engine.first_occurrence ());
                Alcotest.(check (list int)) (name ^ " cursor occurrences")
                  (Oracles.occurrences s !buf)
                  (c.Spine.Engine.occurrences ())
              end
            in
            for _ = 1 to 80 do
              (match Bioseq.Rng.int rng 4 with
               | 0 | 1 ->
                 let ch = Char.chr (Char.code 'a' + Bioseq.Rng.int rng 3) in
                 let expected =
                   Oracles.contains s (!buf ^ String.make 1 ch)
                 in
                 let ok = c.Spine.Engine.advance_char ch in
                 Alcotest.(check bool) (name ^ " advance") expected ok;
                 if ok then buf := !buf ^ String.make 1 ch
               | 2 ->
                 if !buf <> "" then begin
                   c.Spine.Engine.drop_front ();
                   buf := String.sub !buf 1 (String.length !buf - 1)
                 end
               | _ ->
                 let ch = Char.chr (Char.code 'a' + Bioseq.Rng.int rng 3) in
                 c.Spine.Engine.longest_extension (Char.code ch);
                 (* longest suffix of buf+ch present in s *)
                 let w = !buf ^ String.make 1 ch in
                 let rec suffix w =
                   if Oracles.contains s w then w
                   else suffix (String.sub w 1 (String.length w - 1))
                 in
                 buf := suffix w);
              check ()
            done)
          engines)
  done

(* The packed-pattern entry points against the per-char oracle, on a
   2-bit DNA row where one 62-bit word holds 31 codes.  Pattern lengths
   1..65 cover everything from "shorter than a word" through "straddles
   two word boundaries"; the start sweep puts occurrences at in-word
   offsets on both sides of each boundary (0, 29..32, 61, 62 — plus
   [plen] and [n - plen], which vary the offset with the length).  A
   flipped final character makes the word compare disagree mid-span, so
   the boundary scalar fallback is exercised on every shape too. *)
let test_packed_pattern_differential () =
  let rng = Bioseq.Rng.create 20260808 in
  let n = 200 in
  let s = String.init n (fun _ -> "acgt".[Bioseq.Rng.int rng 4]) in
  let flip_last pat =
    let b = Bytes.of_string pat in
    let i = Bytes.length b - 1 in
    let c = Bytes.get b i in
    Bytes.set b i (if c = 'a' then 'c' else 'a');
    Bytes.to_string b
  in
  with_engines_of Bioseq.Alphabet.dna s (fun engines ->
      List.iter
        (fun (name, e) ->
          let check_pattern pat =
            let label what =
              Printf.sprintf "%s %s %S (len %d)" name what pat
                (String.length pat)
            in
            let p =
              match Spine.Engine.pattern_of_string e pat with
              | Some p -> p
              | None -> Alcotest.fail (label "encodes")
            in
            let occ = Oracles.occurrences s pat in
            Alcotest.(check bool) (label "contains_pattern")
              (Oracles.contains s pat) (Spine.Engine.contains_pattern e p);
            Alcotest.(check (option int)) (label "find_first_pattern")
              (Oracles.first_occurrence s pat)
              (Option.map
                 (fun last -> last - String.length pat)
                 (Spine.Engine.find_first_pattern e p));
            Alcotest.(check (list int)) (label "occurrences_pattern")
              occ (Spine.Engine.occurrences_pattern e p)
          in
          for plen = 1 to 65 do
            List.iter
              (fun start ->
                if start >= 0 && start + plen <= n then begin
                  let pat = String.sub s start plen in
                  check_pattern pat;
                  check_pattern (flip_last pat)
                end)
              [ 0; 29; 30; 31; 32; 61; 62; plen; n - plen ]
          done;
          (* cursor advance_pattern: consumes exactly the longest prefix
             of the pattern present in the data, leaving the cursor on
             that match *)
          List.iter
            (fun (start, plen) ->
              let pat = String.sub s start plen ^ "acgtacgt" in
              let p =
                match Spine.Engine.pattern_of_string e pat with
                | Some p -> p
                | None -> Alcotest.fail "cursor pattern encodes"
              in
              let expect =
                let k = ref (String.length pat) in
                while
                  !k > 0 && not (Oracles.contains s (String.sub pat 0 !k))
                do
                  decr k
                done;
                !k
              in
              let c = Spine.Engine.cursor e in
              let consumed = c.Spine.Engine.advance_pattern p in
              Alcotest.(check int)
                (Printf.sprintf "%s cursor consumed (start %d len %d)" name
                   start plen)
                expect consumed;
              Alcotest.(check int)
                (Printf.sprintf "%s cursor length (start %d len %d)" name
                   start plen)
                expect (c.Spine.Engine.length ()))
            [ (0, 40); (17, 33); (30, 2); (100, 64); (n - 65, 65) ];
          (* matching statistics over a word-crossing DNA query drive
             the matcher's bulk vertebra runs; the oracle is per-char *)
          let query = String.init 100 (fun _ -> "acgt".[Bioseq.Rng.int rng 4]) in
          let ms, _ =
            Spine.Engine.matching_statistics e
              (Bioseq.Packed_seq.of_string Bioseq.Alphabet.dna query)
          in
          Alcotest.(check (array int))
            (Printf.sprintf "%s dna matching_statistics" name)
            (Oracles.matching_statistics s query) ms)
        engines)

(* A closed persistent index must refuse queries through its engine and
   through live cursors, instead of reading freed pages — including the
   string entry points, whichever alphabet the string is in. *)
let test_guard () =
  let path = Filename.temp_file "spine_engine" ".db" in
  let p = Spine.Persistent.create ~path Bioseq.Alphabet.dna in
  Spine.Persistent.append_string p "acgtacgtac";
  let e = Spine.Persistent.engine p in
  let c = E.cursor e in
  let gta = Option.get (E.pattern_of_string e "gta") in
  Alcotest.(check bool) "live engine answers" true (E.contains_pattern e gta);
  Alcotest.(check bool) "live out-of-alphabet string" true
    (E.pattern_of_string e "xyz" = None);
  Alcotest.(check bool) "live cursor advances" true
    (c.E.advance_char 'a');
  Spine.Persistent.close p;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let closed = Spine_error.Error (Spine_error.Closed "persistent index") in
      Alcotest.check_raises "closed engine" closed (fun () ->
          ignore (E.contains_pattern e gta));
      Alcotest.check_raises "closed engine, string" closed (fun () ->
          ignore (E.pattern_of_string e "gta"));
      Alcotest.check_raises "closed engine, out-of-alphabet string" closed
        (fun () -> ignore (E.pattern_of_string e "xyz"));
      Alcotest.check_raises "closed run_batch" closed (fun () ->
          ignore (E.run_batch e [ [| 2; 3; 0 |] ]));
      Alcotest.check_raises "closed cursor" closed (fun () ->
          ignore (c.E.advance_char 'c')))

let suite =
  [ Alcotest.test_case "capability records" `Quick test_caps
  ; Alcotest.test_case "cross-backend differential" `Quick test_differential
  ; Alcotest.test_case "run_batch parity" `Quick test_run_batch
  ; Alcotest.test_case "occurrences_batch exposed" `Quick
      test_occurrences_batch_exposed
  ; Alcotest.test_case "cross-backend structure parity" `Quick
      test_structure_parity
  ; Alcotest.test_case "packed-pattern differential" `Quick
      test_packed_pattern_differential
  ; Alcotest.test_case "cursors on paged backends" `Quick test_engine_cursors
  ; Alcotest.test_case "guard after close" `Quick test_guard
  ]
