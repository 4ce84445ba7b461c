(* Approximate matching (seed-and-extend over SPINE) vs naive DP
   oracles. *)

let byte = Bioseq.Alphabet.byte

let codes_of s = Array.init (String.length s) (fun i -> Char.code s.[i])

(* naive k-mismatch positions with their error counts *)
let naive_hamming s pat k =
  let n = String.length s and m = String.length pat in
  let out = ref [] in
  for pos = n - m downto 0 do
    let errors = ref 0 in
    for j = 0 to m - 1 do
      if s.[pos + j] <> pat.[j] then incr errors
    done;
    if !errors <= k then out := (pos, !errors) :: !out
  done;
  !out

(* full (unbanded) edit distance of pat against every data prefix
   starting at pos, minimised over end lengths *)
let naive_edit_at s pat pos k =
  let n = String.length s and m = String.length pat in
  let maxlen = min (m + k) (n - pos) in
  let dp = Array.make_matrix (m + 1) (maxlen + 1) 0 in
  for i = 0 to m do dp.(i).(0) <- i done;
  for j = 0 to maxlen do dp.(0).(j) <- j done;
  for i = 1 to m do
    for j = 1 to maxlen do
      let sub =
        dp.(i - 1).(j - 1) + (if s.[pos + j - 1] = pat.[i - 1] then 0 else 1)
      in
      dp.(i).(j) <- min sub (min (dp.(i - 1).(j) + 1) (dp.(i).(j - 1) + 1))
    done
  done;
  let best = ref None in
  for j = max 0 (m - k) to maxlen do
    if dp.(m).(j) <= k then
      match !best with
      | Some (d, _) when d <= dp.(m).(j) -> ()
      | _ -> best := Some (dp.(m).(j), j)
  done;
  !best

let naive_edit s pat k =
  let n = String.length s in
  let out = ref [] in
  for pos = n - 1 downto 0 do
    match naive_edit_at s pat pos k with
    | Some (d, len) -> out := (pos, d, len) :: !out
    | None -> ()
  done;
  !out

let test_hamming_oracle () =
  let rng = Bioseq.Rng.create 91 in
  for _ = 1 to 25 do
    let s = Oracles.random_string rng 3 (30 + Bioseq.Rng.int rng 150) in
    let idx = Spine.Compact.of_string byte s in
    for _ = 1 to 15 do
      let m = 4 + Bioseq.Rng.int rng 10 in
      let pat =
        if Oracles.coin rng && String.length s > m then begin
          (* a mutated slice of the data, so hits exist *)
          let p = Bioseq.Rng.int rng (String.length s - m) in
          String.mapi
            (fun _ c ->
              if Bioseq.Rng.int rng 10 = 0 then
                Char.chr (Char.code 'a' + Bioseq.Rng.int rng 3)
              else c)
            (String.sub s p m)
        end
        else Oracles.random_string rng 3 m
      in
      let k = Bioseq.Rng.int rng 3 in
      let expected = naive_hamming s pat k in
      let got =
        Align.Approx.hamming idx ~pattern:(codes_of pat) ~k
        |> List.map (fun { Align.Approx.pos; errors; _ } -> (pos, errors))
      in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "hamming %S in %S k=%d" pat s k) expected got
    done
  done

let test_edit_oracle () =
  let rng = Bioseq.Rng.create 92 in
  for _ = 1 to 15 do
    let s = Oracles.random_string rng 3 (30 + Bioseq.Rng.int rng 80) in
    let idx = Spine.Compact.of_string byte s in
    for _ = 1 to 10 do
      let m = 5 + Bioseq.Rng.int rng 8 in
      let pat = Oracles.random_string rng 3 m in
      let k = 1 + Bioseq.Rng.int rng 2 in
      let expected = naive_edit s pat k in
      let got =
        Align.Approx.edit idx ~pattern:(codes_of pat) ~k
        |> List.map (fun { Align.Approx.pos; errors; match_len } ->
               (pos, errors, match_len))
      in
      Alcotest.(check (list (triple int int int)))
        (Printf.sprintf "edit %S in %S k=%d" pat s k) expected got
    done
  done

let test_exact_is_k0 () =
  let rng = Bioseq.Rng.create 93 in
  for _ = 1 to 10 do
    let s = Oracles.random_string rng 3 (50 + Bioseq.Rng.int rng 100) in
    let idx = Spine.Compact.of_string byte s in
    let m = 3 + Bioseq.Rng.int rng 5 in
    let p = Bioseq.Rng.int rng (String.length s - m) in
    let pat = codes_of (String.sub s p m) in
    let exact = Codes.occurrences (Spine.Compact.engine idx) pat in
    let approx =
      Align.Approx.hamming idx ~pattern:pat ~k:0
      |> List.map (fun h -> h.Align.Approx.pos)
    in
    Alcotest.(check (list int)) "k=0 equals exact search" exact approx
  done

let test_degenerate () =
  let idx = Spine.Compact.of_string byte "abcabc" in
  Alcotest.check_raises "empty pattern"
    (Invalid_argument "Approx: empty pattern") (fun () ->
      ignore (Align.Approx.hamming idx ~pattern:[||] ~k:1));
  Alcotest.check_raises "negative k"
    (Invalid_argument "Approx: negative error budget") (fun () ->
      ignore (Align.Approx.hamming idx ~pattern:[| 97 |] ~k:(-1)));
  (* k >= pattern length: everything matches *)
  let hits = Align.Approx.hamming idx ~pattern:(codes_of "zz") ~k:2 in
  Alcotest.(check int) "k >= m matches every window" 5 (List.length hits)

let suite =
  [ Alcotest.test_case "hamming vs naive oracle" `Quick test_hamming_oracle
  ; Alcotest.test_case "edit distance vs naive DP" `Quick test_edit_oracle
  ; Alcotest.test_case "k = 0 equals exact search" `Quick test_exact_is_k0
  ; Alcotest.test_case "degenerate inputs" `Quick test_degenerate
  ]
