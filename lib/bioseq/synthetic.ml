let uniform alphabet rng n =
  let size = Alphabet.size alphabet in
  let seq = Packed_seq.create ~capacity:(Int.max 1 n) alphabet in
  for _ = 1 to n do Packed_seq.append seq (Rng.int rng size) done;
  seq

(* A transition table maps a context id to a cumulative distribution over
   successor symbols. Distributions are drawn by taking [size] exponential
   weights raised to a power controlled by [skew], which interpolates
   between uniform (skew = 0) and near-deterministic (skew -> 1). *)
let make_transitions alphabet rng ~order ~skew =
  let size = Alphabet.size alphabet in
  let contexts = int_of_float (float_of_int size ** float_of_int order) in
  let table = Array.make_matrix contexts size 0.0 in
  for ctx = 0 to contexts - 1 do
    let weights =
      Array.init size (fun _ ->
          let u = Float.max 1e-9 (Rng.float rng 1.0) in
          (* heavier skew -> heavier tail *)
          u ** (1.0 /. Float.max 1e-6 (1.0 -. skew)))
    in
    let total = Array.fold_left ( +. ) 0.0 weights in
    let acc = ref 0.0 in
    for sym = 0 to size - 1 do
      acc := !acc +. (weights.(sym) /. total);
      table.(ctx).(sym) <- !acc
    done;
    (* guard against rounding leaving the last bucket short *)
    table.(ctx).(size - 1) <- 1.0
  done;
  table

let sample_row rng row =
  let u = Rng.float rng 1.0 in
  let n = Array.length row in
  let rec go i = if i >= n - 1 || u < row.(i) then i else go (i + 1) in
  go 0

let markov ?(order = 2) ?(skew = 0.6) alphabet rng n =
  if order < 0 then invalid_arg "Synthetic.markov: negative order";
  let size = Alphabet.size alphabet in
  let table = make_transitions alphabet rng ~order ~skew in
  let contexts = Array.length table in
  let seq = Packed_seq.create ~capacity:(Int.max 1 n) alphabet in
  let ctx = ref 0 in
  for _ = 1 to n do
    let sym = sample_row rng table.(!ctx) in
    Packed_seq.append seq sym;
    ctx := ((!ctx * size) + sym) mod contexts
  done;
  seq

type repeat_profile = {
  repeat_prob : float;
  mean_repeat_len : int;
  mutation_rate : float;
  order : int;
  skew : float;
  clean_copy_prob : float;
  long_copy_prob : float;
  long_copy_factor : int;
}

(* Calibrated against the paper's Table 4 (see Corpus): ~30 % of SPINE
   nodes end up carrying downstream edges, decaying with fanout. *)
let default_repeats =
  { repeat_prob = 0.0005;
    mean_repeat_len = 200;
    mutation_rate = 0.03;
    order = 2;
    skew = 0.0;
    clean_copy_prob = 0.15;
    long_copy_prob = 0.04;
    long_copy_factor = 12 }

let geometric rng mean =
  (* mean of a geometric with success prob p is 1/p *)
  let p = 1.0 /. float_of_int (Int.max 1 mean) in
  let rec go n =
    if n > 50 * mean then n
    else if Rng.float rng 1.0 < p then n
    else go (n + 1)
  in
  1 + go 0

let genomic ?(profile = default_repeats) alphabet rng n =
  let size = Alphabet.size alphabet in
  let table =
    make_transitions alphabet rng ~order:profile.order ~skew:profile.skew
  in
  let contexts = Array.length table in
  let seq = Packed_seq.create ~capacity:(Int.max 1 n) alphabet in
  let ctx = ref 0 in
  let emit sym =
    Packed_seq.append seq sym;
    ctx := ((!ctx * size) + sym) mod contexts
  in
  while Packed_seq.length seq < n do
    let len_so_far = Packed_seq.length seq in
    if len_so_far > 64 && Rng.float rng 1.0 < profile.repeat_prob then begin
      (* copy event: duplicate an earlier segment with point mutations.
         A small fraction of events are long (segmental duplications)
         and a fraction are mutation-free (recent duplications) — both
         needed to reproduce the paper's Table 3 label magnitudes. *)
      let mean =
        if Rng.float rng 1.0 < profile.long_copy_prob then
          profile.mean_repeat_len * profile.long_copy_factor
        else profile.mean_repeat_len
      in
      let mutation_rate =
        if Rng.float rng 1.0 < profile.clean_copy_prob then 0.0
        else profile.mutation_rate
      in
      let seg_len = Int.min (geometric rng mean) len_so_far in
      let src = Rng.int rng (len_so_far - seg_len + 1) in
      let budget = n - len_so_far in
      let seg_len = Int.min seg_len budget in
      for i = 0 to seg_len - 1 do
        let sym = Packed_seq.get seq (src + i) in
        let sym =
          if Rng.float rng 1.0 < mutation_rate then Rng.int rng size
          else sym
        in
        emit sym
      done
    end
    else emit (sample_row rng table.(!ctx))
  done;
  seq

let mutate ~rate rng s =
  let alphabet = Packed_seq.alphabet s in
  let size = Alphabet.size alphabet in
  let out =
    Packed_seq.create ~capacity:(Int.max 1 (Packed_seq.length s)) alphabet
  in
  Packed_seq.iteri s ~f:(fun _ code ->
      let code =
        if code < size && Rng.float rng 1.0 < rate then Rng.int rng size
        else code
      in
      Packed_seq.append out code);
  out

let fibonacci alphabet n =
  if Alphabet.size alphabet < 2 then
    invalid_arg "Synthetic.fibonacci: alphabet too small";
  let seq = Packed_seq.create ~capacity:(Int.max 1 n) alphabet in
  (* iterative fibonacci-word morphism: 0 -> 01, 1 -> 0, grown in memory *)
  let prev = ref [| 0 |] and cur = ref [| 0; 1 |] in
  while Array.length !cur < n do
    let next = Array.append !cur !prev in
    prev := !cur;
    cur := next
  done;
  for i = 0 to Int.min n (Array.length !cur) - 1 do
    Packed_seq.append seq !cur.(i)
  done;
  seq

let periodic alphabet ~period n =
  if String.length period = 0 then invalid_arg "Synthetic.periodic: empty period";
  let seq = Packed_seq.create ~capacity:(Int.max 1 n) alphabet in
  for i = 0 to n - 1 do
    let c = period.[i mod String.length period] in
    Packed_seq.append seq (Alphabet.encode alphabet c)
  done;
  seq
