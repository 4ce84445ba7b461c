type t = {
  seq : Bioseq.Packed_seq.t;
  sa : int array;            (* rank -> suffix start *)
  rank : int array;          (* suffix start -> rank *)
  mutable lcp_cache : int array option;
}

(* Manber–Myers prefix doubling: sort suffixes by their first k
   characters, doubling k, using rank pairs as sort keys. *)
let build seq =
  let n = Bioseq.Packed_seq.length seq in
  let sa = Array.init n (fun i -> i) in
  let rank = Array.init n (fun i -> Bioseq.Packed_seq.get seq i) in
  let tmp = Array.make (max n 1) 0 in
  let k = ref 1 in
  (* at least one pass even for n = 1, so ranks are normalised from raw
     symbol codes to dense ranks *)
  let continue = ref (n > 0) in
  while !continue do
    let key i =
      (rank.(i), if i + !k < n then rank.(i + !k) else -1)
    in
    Array.sort (fun a b -> compare (key a) (key b)) sa;
    if n > 0 then begin
      tmp.(sa.(0)) <- 0;
      for r = 1 to n - 1 do
        tmp.(sa.(r)) <-
          tmp.(sa.(r - 1)) + (if key sa.(r) = key sa.(r - 1) then 0 else 1)
      done;
      Array.blit tmp 0 rank 0 n
    end;
    if n = 0 || rank.(sa.(n - 1)) = n - 1 then continue := false
    else k := !k * 2
  done;
  { seq; sa; rank; lcp_cache = None }

let of_string alphabet s = build (Bioseq.Packed_seq.of_string alphabet s)

let length t = Array.length t.sa

let suffix_at t r = t.sa.(r)

let lcp t =
  match t.lcp_cache with
  | Some l -> l
  | None ->
    (* Kasai's algorithm *)
    let n = length t in
    let l = Array.make (max n 1) 0 in
    let h = ref 0 in
    for i = 0 to n - 1 do
      let r = t.rank.(i) in
      if r > 0 then begin
        let j = t.sa.(r - 1) in
        while
          i + !h < n && j + !h < n
          && Bioseq.Packed_seq.get t.seq (i + !h)
             = Bioseq.Packed_seq.get t.seq (j + !h)
        do incr h done;
        l.(r) <- !h;
        if !h > 0 then decr h
      end
      else h := 0
    done;
    t.lcp_cache <- Some l;
    l

(* compare pattern against suffix starting at [p]; <0, 0, >0 like
   [compare pattern suffix-prefix] *)
let compare_at t pattern p =
  let n = length t and m = Array.length pattern in
  let rec go k =
    if k >= m then 0
    else if p + k >= n then 1           (* suffix exhausted: pattern greater *)
    else
      let c = compare pattern.(k) (Bioseq.Packed_seq.get t.seq (p + k)) in
      if c <> 0 then c else go (k + 1)
  in
  go 0

let occurrences t pattern =
  let n = length t in
  let m = Array.length pattern in
  if m = 0 || n = 0 then []
  else begin
    (* lowest rank with suffix >= pattern *)
    let lo =
      let a = ref 0 and b = ref n in
      while !a < !b do
        let mid = (!a + !b) / 2 in
        if compare_at t pattern t.sa.(mid) > 0 then a := mid + 1 else b := mid
      done;
      !a
    in
    (* lowest rank with suffix-prefix > pattern *)
    let hi =
      let a = ref lo and b = ref n in
      while !a < !b do
        let mid = (!a + !b) / 2 in
        if compare_at t pattern t.sa.(mid) >= 0 then a := mid + 1 else b := mid
      done;
      !a
    in
    let out = ref [] in
    for r = lo to hi - 1 do out := t.sa.(r) :: !out done;
    List.sort compare !out
  end

let model_bytes_per_char t =
  if length t = 0 then 0.0 else 6.0
