(* Tests for the sequence substrate: alphabets, packed sequences,
   FASTA, deterministic RNG, and the synthetic generators. *)

let test_alphabet_roundtrip () =
  List.iter
    (fun (name, a) ->
      for code = 0 to Bioseq.Alphabet.size a - 1 do
        let c = Bioseq.Alphabet.decode a code in
        Alcotest.(check int)
          (Printf.sprintf "%s roundtrip %d" name code)
          code (Bioseq.Alphabet.encode a c)
      done)
    [ ("dna", Bioseq.Alphabet.dna); ("protein", Bioseq.Alphabet.protein);
      ("byte", Bioseq.Alphabet.byte) ]

let test_alphabet_bits () =
  (* 4 symbols + separator needs 3 bits; the paper's 2-bit figure is the
     payload width used in space accounting *)
  Alcotest.(check int) "dna bits" 3 (Bioseq.Alphabet.bits Bioseq.Alphabet.dna);
  Alcotest.(check int) "dna payload bits" 2
    (Bioseq.Alphabet.payload_bits Bioseq.Alphabet.dna);
  Alcotest.(check int) "protein bits" 5
    (Bioseq.Alphabet.bits Bioseq.Alphabet.protein);
  Alcotest.(check int) "protein payload bits" 5
    (Bioseq.Alphabet.payload_bits Bioseq.Alphabet.protein);
  Alcotest.(check int) "separator code" 4
    (Bioseq.Alphabet.separator Bioseq.Alphabet.dna)

let test_alphabet_errors () =
  Alcotest.check_raises "duplicate symbols"
    (Invalid_argument "Alphabet.make: duplicate symbol") (fun () ->
      ignore (Bioseq.Alphabet.make "aa"));
  Alcotest.check_raises "empty"
    (Invalid_argument "Alphabet.make: empty alphabet") (fun () ->
      ignore (Bioseq.Alphabet.make ""));
  (match Bioseq.Alphabet.encode_opt Bioseq.Alphabet.dna 'z' with
   | None -> ()
   | Some _ -> Alcotest.fail "z should not encode")

let test_packed_roundtrip () =
  let rng = Bioseq.Rng.create 3 in
  List.iter
    (fun a ->
      for _ = 1 to 20 do
        let n = Bioseq.Rng.int rng 200 in
        let codes =
          Array.init n (fun _ -> Bioseq.Rng.int rng (Bioseq.Alphabet.size a))
        in
        let seq = Bioseq.Packed_seq.of_codes a codes in
        Alcotest.(check int) "length" n (Bioseq.Packed_seq.length seq);
        Array.iteri
          (fun i c -> Alcotest.(check int) "get" c (Bioseq.Packed_seq.get seq i))
          codes;
        (* string roundtrip *)
        let s = Oracles.seq_string seq in
        Alcotest.(check bool) "string roundtrip" true
          (Oracles.same_seq seq (Bioseq.Packed_seq.of_string a s));
        (* word-packed roundtrip: the serialized form is the raw words *)
        let packed = Bioseq.Packed_seq.packed_bits seq in
        Alcotest.(check int) "packed length" (Bytes.length packed)
          (Bioseq.Packed_seq.packed_byte_length seq);
        let back =
          Bioseq.Packed_seq.of_packed_bits a ~len:n
            ~width:(Bioseq.Packed_seq.width seq) packed
        in
        Alcotest.(check bool) "bit roundtrip" true
          (Oracles.same_seq seq back)
      done)
    [ Bioseq.Alphabet.dna; Bioseq.Alphabet.protein ]

let test_packed_growth () =
  let seq = Bioseq.Packed_seq.create ~capacity:1 Bioseq.Alphabet.dna in
  for i = 0 to 9999 do
    Bioseq.Packed_seq.append seq (i mod 4)
  done;
  Alcotest.(check int) "length after growth" 10000 (Bioseq.Packed_seq.length seq);
  Alcotest.(check int) "spot check" 3 (Bioseq.Packed_seq.get seq 4003)

let test_packed_bounds () =
  (* the checked boundary: safe [get] raises on out-of-range instead of
     reading the raw word buffer *)
  let seq = Bioseq.Packed_seq.of_string Bioseq.Alphabet.dna "acgt" in
  List.iter
    (fun i ->
      match Bioseq.Packed_seq.get seq i with
      | exception Invalid_argument _ -> ()
      | v -> Alcotest.failf "get %d should raise, got %d" i v)
    [ -1; 4; 100; max_int ];
  let empty = Bioseq.Packed_seq.create Bioseq.Alphabet.dna in
  (match Bioseq.Packed_seq.get empty 0 with
   | exception Invalid_argument _ -> ()
   | v -> Alcotest.failf "get on empty should raise, got %d" v)

let test_packed_widening () =
  let a = Bioseq.Alphabet.dna in
  let seq = Bioseq.Packed_seq.create a in
  for i = 0 to 99 do Bioseq.Packed_seq.append seq (i mod 4) done;
  Alcotest.(check int) "dna starts 2-bit" 2 (Bioseq.Packed_seq.width seq);
  (* a 62-bit word holds [62 / width] codes *)
  Alcotest.(check int) "31 codes per word" 31
    (62 / Bioseq.Packed_seq.width seq);
  Bioseq.Packed_seq.append seq (Bioseq.Alphabet.separator a);
  Alcotest.(check int) "separator widens to 4-bit" 4
    (Bioseq.Packed_seq.width seq);
  for i = 0 to 99 do
    Alcotest.(check int) "repack preserves codes" (i mod 4)
      (Bioseq.Packed_seq.get seq i)
  done;
  Alcotest.(check int) "separator stored" (Bioseq.Alphabet.separator a)
    (Bioseq.Packed_seq.get seq 100);
  (* cross-width comparison falls back to scalar steps and still
     agrees: seq starts with the same 8 codes as the narrow row *)
  let narrow = Bioseq.Packed_seq.of_string a "acgtacgt" in
  let m, words, scalars =
    Bioseq.Packed_seq.mismatch narrow ~apos:0 seq ~bpos:0 ~len:8
  in
  Alcotest.(check int) "cross-width match" 8 m;
  Alcotest.(check int) "cross-width word steps" 0 words;
  Alcotest.(check int) "cross-width scalar steps" 8 scalars

let test_packed_mismatch_oracle () =
  (* differential property: word-at-a-time [mismatch] against a
     per-code oracle, over random spans at every word offset *)
  let a = Bioseq.Alphabet.dna in
  let rng = Bioseq.Rng.create 11 in
  for _ = 1 to 400 do
    let n = 2 + Bioseq.Rng.int rng 200 in
    let s = Bioseq.Synthetic.uniform a (Bioseq.Rng.split rng) n in
    let codes = Array.init n (fun i -> Bioseq.Packed_seq.get s i) in
    let flip = Bioseq.Rng.int rng n in
    codes.(flip) <- (codes.(flip) + 1 + Bioseq.Rng.int rng 3) mod 4;
    let t = Bioseq.Packed_seq.of_codes a codes in
    let apos = Bioseq.Rng.int rng n in
    let bpos = Bioseq.Rng.int rng n in
    let len = Bioseq.Rng.int rng (min (n - apos) (n - bpos) + 1) in
    let m, words, scalars = Bioseq.Packed_seq.mismatch s ~apos t ~bpos ~len in
    let oracle = ref 0 in
    while
      !oracle < len
      && Bioseq.Packed_seq.get s (apos + !oracle)
         = Bioseq.Packed_seq.get t (bpos + !oracle)
    do
      incr oracle
    done;
    Alcotest.(check int) "mismatch vs oracle" !oracle m;
    (* step accounting covers every matched position *)
    let cpw = 62 / Bioseq.Packed_seq.width s in
    Alcotest.(check bool) "steps cover the match" true
      ((words * cpw) + scalars >= m)
  done

let test_packed_pattern_oracle () =
  (* every pattern length 1..65 (straddling word boundaries both in the
     pattern and at every text offset) extends exactly as far as the
     per-code oracle says *)
  let a = Bioseq.Alphabet.dna in
  let rng = Bioseq.Rng.create 12 in
  let n = 400 in
  let s = Bioseq.Synthetic.uniform a (Bioseq.Rng.split rng) n in
  for plen = 1 to 65 do
    for _ = 1 to 4 do
      let pos = Bioseq.Rng.int rng (n - plen) in
      let codes =
        Array.init plen (fun i -> Bioseq.Packed_seq.get s (pos + i))
      in
      let p = Bioseq.Packed_seq.pattern s codes in
      let m, _, _ =
        Bioseq.Packed_seq.mismatch_pattern s ~pos p ~ppos:0 ~len:plen
      in
      Alcotest.(check int) "substring fully matches" plen m;
      let codes' = Array.copy codes in
      codes'.(plen - 1) <- (codes'.(plen - 1) + 1) mod 4;
      let p' = Bioseq.Packed_seq.pattern s codes' in
      let m', _, _ =
        Bioseq.Packed_seq.mismatch_pattern s ~pos p' ~ppos:0 ~len:plen
      in
      Alcotest.(check int) "flipped tail stops early" (plen - 1) m'
    done
  done;
  (* out-of-alphabet pattern codes never match but never raise *)
  let p = Bioseq.Packed_seq.pattern s [| 99; -1 |] in
  let m, _, _ = Bioseq.Packed_seq.mismatch_pattern s ~pos:0 p ~ppos:0 ~len:2 in
  Alcotest.(check int) "unpackable codes match nothing" 0 m

(* one alphabet packing at each cell width: 4 symbols at 2 bits, 10 at
   4 bits, 20 at 8 bits *)
let cell_widths =
  [ (2, Bioseq.Alphabet.dna); (4, Bioseq.Alphabet.make "abcdefghij");
    (8, Bioseq.Alphabet.protein) ]

(* per-code reference: the first position where the spans differ *)
let reference_mismatch get_a apos get_b bpos len =
  let rec go j =
    if j < len && get_a (apos + j) = get_b (bpos + j) then go (j + 1) else j
  in
  go 0

let test_packed_span_residues () =
  (* [mismatch] and [mismatch_pattern] against the per-code reference at
     every cell width, every start residue of both spans modulo the
     codes per word, every span length 0..3*cpw+1 and every position
     of the first difference; same-width spans never take a per-code
     step, and stop at the word holding the first difference *)
  List.iter
    (fun (width, a) ->
      let cpw = 62 / width in
      let size = Bioseq.Alphabet.size a in
      let rng = Bioseq.Rng.create (100 + width) in
      let max_len = (3 * cpw) + 1 in
      let check row ~apos b p ~bpos ~len ~expect =
        let words =
          if expect < len then (expect / cpw) + 1 else (len + cpw - 1) / cpw
        in
        let agree f (m, w, sc) =
          if m <> expect || w <> words || sc <> 0 then
            Alcotest.failf
              "%s at width %d, apos %d, bpos %d, len %d: (%d, %d, %d), \
               reference (%d, %d, 0)"
              f width apos bpos len m w sc expect words
        in
        agree "mismatch" (Bioseq.Packed_seq.mismatch row ~apos b ~bpos ~len);
        agree "mismatch_pattern"
          (Bioseq.Packed_seq.mismatch_pattern row ~pos:apos p ~ppos:bpos ~len)
      in
      (* [b] holds [base] shifted right by [off], one code changed
         every [period] codes; [period] is 1 mod cpw, so the k-th change
         sits at residue k and a span starting [d] codes before one of
         them covers every (start residue, first difference) pair *)
      let period = (4 * cpw) + 1 in
      let n = (cpw + 2) * period in
      let base = Array.init n (fun _ -> Bioseq.Rng.int rng size) in
      let row = Bioseq.Packed_seq.of_codes a base in
      Alcotest.(check int) "cell width" width (Bioseq.Packed_seq.width row);
      for off = 0 to cpw - 1 do
        let bcodes =
          Array.init (n + off) (fun i ->
              if i < off then Bioseq.Rng.int rng size
              else
                let j = i - off in
                if j > 0 && j mod period = 0 then (base.(j) + 1) mod size
                else base.(j))
        in
        let b = Bioseq.Packed_seq.of_codes a bcodes in
        let p = Bioseq.Packed_seq.pattern row bcodes in
        (* the per-code reference for every start at once: [agree.(x)]
           codes match from [x] in [row] and [x + off] in [b] *)
        let agree = Array.make (n + 1) 0 in
        for x = n - 1 downto 0 do
          if Bioseq.Packed_seq.get row x = Bioseq.Packed_seq.get b (x + off)
          then agree.(x) <- agree.(x + 1) + 1
        done;
        for k = 1 to cpw do
          for len = 0 to max_len do
            for d = 0 to len do
              let apos = (k * period) - d in
              check row ~apos b p ~bpos:(apos + off) ~len
                ~expect:(Int.min agree.(apos) len)
            done
          done
        done
      done;
      (* spans that end on both rows' last code, the first difference
         at each position of the span or past it *)
      let la = max_len + 2 in
      let tail = Array.sub base 0 la in
      let short = Bioseq.Packed_seq.of_codes a tail in
      for off = 0 to cpw - 1 do
        let lead = Array.init off (fun _ -> Bioseq.Rng.int rng size) in
        for len = 0 to max_len do
          for d = 0 to len do
            let bcodes = Array.append lead tail in
            let at = off + la - len + d in
            if d < len then bcodes.(at) <- (bcodes.(at) + 1) mod size;
            let b = Bioseq.Packed_seq.of_codes a bcodes in
            let p = Bioseq.Packed_seq.pattern short bcodes in
            let apos = la - len and bpos = off + la - len in
            check short ~apos b p ~bpos ~len
              ~expect:
                (reference_mismatch (Bioseq.Packed_seq.get short) apos
                   (Bioseq.Packed_seq.get b) bpos len)
          done
        done
      done)
    cell_widths

let test_pattern_code_bounds () =
  (* a pattern packs at the text's width exactly when its codes span
     [0, 2^width): checked against a reference fold through the path
     [mismatch_pattern] takes (word steps, or per-code steps only) *)
  List.iter
    (fun (width, a) ->
      let size = Bioseq.Alphabet.size a in
      let rng = Bioseq.Rng.create (200 + width) in
      let text =
        Bioseq.Packed_seq.of_codes a
          (Array.init 64 (fun _ -> Bioseq.Rng.int rng size))
      in
      let check codes =
        let n = Array.length codes in
        let p = Bioseq.Packed_seq.pattern text codes in
        Alcotest.(check int) "pattern length" n
          (Bioseq.Packed_seq.Pattern.length p);
        let lo = Array.fold_left Int.min 0 codes in
        let hi = Array.fold_left Int.max (-1) codes in
        let packs = lo >= 0 && hi < 1 lsl width in
        let expect =
          reference_mismatch (Bioseq.Packed_seq.get text) 0 (Array.get codes) 0
            n
        in
        let m, words, scalars =
          Bioseq.Packed_seq.mismatch_pattern text ~pos:0 p ~ppos:0 ~len:n
        in
        let what =
          Printf.sprintf "width %d codes [%s]" width
            (String.concat ";" (Array.to_list (Array.map string_of_int codes)))
        in
        Alcotest.(check int) ("match length " ^ what) expect m;
        Alcotest.(check bool) ("packed iff the codes fit " ^ what)
          (n > 0 && packs) (words > 0);
        Alcotest.(check int) ("per-code steps " ^ what)
          (if packs then 0 else m + if m < n then 1 else 0)
          scalars
      in
      check [||];
      List.iter
        (fun c -> check [| c |])
        [ -1; 0; size - 1; (1 lsl width) - 1; 1 lsl width; 300 ];
      for _ = 1 to 300 do
        let n = 1 + Bioseq.Rng.int rng 40 in
        let codes = Array.init n (fun _ -> Bioseq.Rng.int rng size) in
        (* at most one code outside the cell, in any slot *)
        (match Bioseq.Rng.int rng 3 with
        | 0 ->
          codes.(Bioseq.Rng.int rng n) <- (1 lsl width) + Bioseq.Rng.int rng 4
        | 1 -> codes.(Bioseq.Rng.int rng n) <- -1 - Bioseq.Rng.int rng 3
        | _ -> ());
        check codes
      done)
    cell_widths

let test_pattern_row_words () =
  (* a pattern's packed row holds the same words as its codes appended
     to a fresh sequence: compared from code 0, both rows' words line
     up, so every word step must XOR to zero *)
  List.iter
    (fun (width, a) ->
      let cpw = 62 / width in
      let size = Bioseq.Alphabet.size a in
      let rng = Bioseq.Rng.create (300 + width) in
      for n = 0 to (3 * cpw) + 2 do
        let codes = Array.init n (fun _ -> Bioseq.Rng.int rng size) in
        let fresh = Bioseq.Packed_seq.create a in
        Array.iter (Bioseq.Packed_seq.append fresh) codes;
        let p = Bioseq.Packed_seq.pattern fresh codes in
        for ppos = 0 to n do
          let len = n - ppos in
          Alcotest.(check (triple int int int))
            (Printf.sprintf "width %d n %d from %d" width n ppos)
            (len, (len + cpw - 1) / cpw, 0)
            (Bioseq.Packed_seq.mismatch_pattern fresh ~pos:ppos p ~ppos ~len)
        done
      done)
    cell_widths

let test_packed_bits_rejected () =
  (* every malformed payload raises at each cell width: bit 62 or 63 of
     any stored word (an OCaml int holds 63 bits, so bit 63 must be
     refused before the conversion drops it), a bit past the last code,
     a code above the separator, a short payload and an unsupported
     width; each alphabet leaves its cell room above the separator *)
  List.iter
    (fun (width, a) ->
      let n = 40 in
      let rng = Bioseq.Rng.create (400 + width) in
      let row =
        Bioseq.Packed_seq.of_codes a
          (Array.init n (fun _ -> Bioseq.Rng.int rng (Bioseq.Alphabet.size a)))
      in
      Alcotest.(check int) "cell width" width (Bioseq.Packed_seq.width row);
      let bits = Bioseq.Packed_seq.packed_bits row in
      let nb = Bytes.length bits in
      let load ?(width = width) b =
        Bioseq.Packed_seq.of_packed_bits a ~len:n ~width b
      in
      Alcotest.(check bool) "the intact payload loads" true
        (Oracles.same_seq row (load bits));
      let rejects what f =
        match f () with
        | _ -> Alcotest.failf "width %d: %s loaded" width what
        | exception Invalid_argument _ -> ()
      in
      let flipped byte bit =
        let b = Bytes.copy bits in
        Bytes.set_uint8 b byte (Bytes.get_uint8 b byte lxor (1 lsl bit));
        b
      in
      for w = 0 to (nb / 8) - 1 do
        List.iter
          (fun bit ->
            rejects (Printf.sprintf "bit %d of word %d" bit w) (fun () ->
                load (flipped ((8 * w) + 7) (bit - 56))))
          [ 62; 63 ]
      done;
      let cpw = 62 / width in
      let past = (n - (((nb / 8) - 1) * cpw)) * width in
      rejects "a bit past the last code" (fun () ->
          load (flipped (nb - 8 + (past / 8)) (past mod 8)));
      let above = Bytes.copy bits in
      Bytes.set_uint8 above 0
        (Bytes.get_uint8 above 0
         land lnot ((1 lsl width) - 1)
         lor (Bioseq.Alphabet.separator a + 1));
      rejects "a code above the separator" (fun () -> load above);
      rejects "a short payload" (fun () -> load (Bytes.sub bits 0 (nb - 1)));
      rejects "an unsupported width" (fun () -> load ~width:3 bits))
    [ (2, Bioseq.Alphabet.make "ab"); (4, Bioseq.Alphabet.make "abcdefghij");
      (8, Bioseq.Alphabet.protein) ]

let test_rng_determinism () =
  let a = Bioseq.Rng.create 42 and b = Bioseq.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Bioseq.Rng.int a 1000)
      (Bioseq.Rng.int b 1000)
  done;
  let c = Bioseq.Rng.create 43 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Bioseq.Rng.int a 1000 <> Bioseq.Rng.int c 1000 then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_rng_bounds () =
  let rng = Bioseq.Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Bioseq.Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of bounds: %d" v;
    let f = Bioseq.Rng.float rng 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.failf "float out of bounds: %f" f
  done

(* FASTA text as the parser reads it: from a file *)
let parse_fasta alphabet text =
  let path = Filename.temp_file "spine_fasta" ".fa" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
      Bioseq.Fasta.read_file alphabet path)

let test_fasta_roundtrip () =
  let dna = Bioseq.Alphabet.dna in
  let records =
    [ { Bioseq.Fasta.header = "chr1 test";
        seq = Bioseq.Packed_seq.of_string dna "acgtacgtacgt" }
    ; { Bioseq.Fasta.header = "chr2";
        seq = Bioseq.Packed_seq.of_string dna (String.make 200 'g') }
    ]
  in
  let text =
    String.concat ""
      (List.map
         (fun r ->
           let s = Oracles.seq_string r.Bioseq.Fasta.seq in
           (* sequence lines wrapped at 70 characters *)
           let lines =
             List.init
               ((String.length s + 69) / 70)
               (fun i -> String.sub s (i * 70) (min 70 (String.length s - (i * 70))))
           in
           String.concat "\n" ((">" ^ r.Bioseq.Fasta.header) :: lines) ^ "\n")
         records)
  in
  let parsed = parse_fasta dna text in
  Alcotest.(check int) "record count" 2 (List.length parsed);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "header" a.Bioseq.Fasta.header b.Bioseq.Fasta.header;
      Alcotest.(check bool) "seq" true
        (Oracles.same_seq a.Bioseq.Fasta.seq b.Bioseq.Fasta.seq))
    records parsed

let test_fasta_tolerance () =
  let dna = Bioseq.Alphabet.dna in
  (* upper case, Ns, CRLF line endings *)
  let text = ">x desc\r\nACGT\r\nNNacgtNN\r\n" in
  match parse_fasta dna text with
  | [ { Bioseq.Fasta.header; seq } ] ->
    Alcotest.(check string) "header" "x desc" header;
    Alcotest.(check string) "normalised seq" "acgtacgt"
      (Oracles.seq_string seq)
  | _ -> Alcotest.fail "expected one record"

let test_fasta_errors () =
  (match parse_fasta Bioseq.Alphabet.dna "acgt\n" with
   | exception Failure _ -> ()
   | _ -> Alcotest.fail "data before header must be rejected")

let test_generators_deterministic () =
  let mk seed = Bioseq.Synthetic.genomic Bioseq.Alphabet.dna (Bioseq.Rng.create seed) 5000 in
  Alcotest.(check bool) "same seed same string" true
    (Oracles.same_seq (mk 9) (mk 9));
  Alcotest.(check bool) "different seed different string" false
    (Oracles.same_seq (mk 9) (mk 10))

let test_generator_lengths () =
  let rng = Bioseq.Rng.create 4 in
  List.iter
    (fun n ->
      let u = Bioseq.Synthetic.uniform Bioseq.Alphabet.dna (Bioseq.Rng.split rng) n in
      let m = Bioseq.Synthetic.markov Bioseq.Alphabet.dna (Bioseq.Rng.split rng) n in
      let g = Bioseq.Synthetic.genomic Bioseq.Alphabet.dna (Bioseq.Rng.split rng) n in
      Alcotest.(check int) "uniform length" n (Bioseq.Packed_seq.length u);
      Alcotest.(check int) "markov length" n (Bioseq.Packed_seq.length m);
      Alcotest.(check int) "genomic length" n (Bioseq.Packed_seq.length g))
    [ 0; 1; 100; 12345 ]

let test_fibonacci_and_periodic () =
  let fib = Bioseq.Synthetic.fibonacci Bioseq.Alphabet.dna 13 in
  (* the fibonacci word begins a b a a b a b a a b a a b *)
  Alcotest.(check string) "fibonacci prefix" "acaacacaacaac"
    (Oracles.seq_string fib);
  let p = Bioseq.Synthetic.periodic Bioseq.Alphabet.dna ~period:"acg" 8 in
  Alcotest.(check string) "periodic" "acgacgac" (Oracles.seq_string p)

let test_mutate_rate () =
  let rng = Bioseq.Rng.create 6 in
  let s = Bioseq.Synthetic.uniform Bioseq.Alphabet.dna (Bioseq.Rng.split rng) 20000 in
  let m = Bioseq.Synthetic.mutate ~rate:0.1 (Bioseq.Rng.split rng) s in
  let diffs = ref 0 in
  Bioseq.Packed_seq.iteri s ~f:(fun i c ->
      if Bioseq.Packed_seq.get m i <> c then incr diffs);
  (* expected ~ rate * (1 - 1/sigma) * n = 1500; allow wide tolerance *)
  if !diffs < 1000 || !diffs > 2000 then
    Alcotest.failf "unexpected mutation count %d" !diffs

let test_corpus () =
  Alcotest.(check bool) "find eco" true (Bioseq.Corpus.find "eco" <> None);
  Alcotest.(check bool) "find unknown" true (Bioseq.Corpus.find "nope" = None);
  let s = Bioseq.Corpus.load ~scale:0.001 Bioseq.Corpus.eco in
  Alcotest.(check int) "scaled length" 3500 (Bioseq.Packed_seq.length s);
  let s2 = Bioseq.Corpus.load ~scale:0.001 Bioseq.Corpus.eco in
  Alcotest.(check bool) "deterministic" true (Oracles.same_seq s s2);
  Alcotest.(check int) "clamped minimum" 1000
    (Bioseq.Corpus.scaled_length ~scale:0.0000001 Bioseq.Corpus.eco)

let suite =
  [ Alcotest.test_case "alphabet roundtrip" `Quick test_alphabet_roundtrip
  ; Alcotest.test_case "alphabet bits/separator" `Quick test_alphabet_bits
  ; Alcotest.test_case "alphabet error handling" `Quick test_alphabet_errors
  ; Alcotest.test_case "packed seq roundtrips" `Quick test_packed_roundtrip
  ; Alcotest.test_case "packed seq growth" `Quick test_packed_growth
  ; Alcotest.test_case "packed safe-get bounds" `Quick test_packed_bounds
  ; Alcotest.test_case "packed cell widening" `Quick test_packed_widening
  ; Alcotest.test_case "packed mismatch vs oracle" `Quick
      test_packed_mismatch_oracle
  ; Alcotest.test_case "packed pattern vs oracle" `Quick
      test_packed_pattern_oracle
  ; Alcotest.test_case "rng determinism" `Quick test_rng_determinism
  ; Alcotest.test_case "rng bounds" `Quick test_rng_bounds
  ; Alcotest.test_case "fasta roundtrip" `Quick test_fasta_roundtrip
  ; Alcotest.test_case "fasta tolerance (case, N, CRLF)" `Quick
      test_fasta_tolerance
  ; Alcotest.test_case "fasta malformed input" `Quick test_fasta_errors
  ; Alcotest.test_case "generators deterministic" `Quick
      test_generators_deterministic
  ; Alcotest.test_case "generator exact lengths" `Quick test_generator_lengths
  ; Alcotest.test_case "fibonacci & periodic words" `Quick
      test_fibonacci_and_periodic
  ; Alcotest.test_case "mutation rate" `Quick test_mutate_rate
  ; Alcotest.test_case "corpus profiles" `Quick test_corpus
  ; Alcotest.test_case "packed spans at every residue and width" `Quick
      test_packed_span_residues
  ; Alcotest.test_case "pattern code bounds vs fold" `Quick
      test_pattern_code_bounds
  ; Alcotest.test_case "pattern row words vs appended row" `Quick
      test_pattern_row_words
  ; Alcotest.test_case "malformed packed payloads rejected" `Quick
      test_packed_bits_rejected
  ]
