let min_beyond = 10

let nearest_rank sorted p =
  let n = Array.length sorted in
  if not (p > 0. && p < 100.) then
    Error (Printf.sprintf "p%g is outside (0, 100)" p)
  else begin
    (* p * n / 100 is often an integer spoiled by rounding (0.99 * 1000
       = 989.99...); snap it before taking the ceiling *)
    let x = p *. float_of_int n /. 100. in
    let r = Float.round x in
    let rank = max 1 (int_of_float (if Float.abs (x -. r) < 1e-9 then r else Float.ceil x)) in
    if n - rank < min_beyond then
      Error
        (Printf.sprintf "p%g of %d samples has %d beyond its rank, needs %d" p
           n (n - rank) min_beyond)
    else Ok sorted.(rank - 1)
  end

let sorted_copy values =
  let d = Array.copy values in
  Array.sort Float.compare d;
  d

let median values =
  let d = sorted_copy values in
  let n = Array.length d in
  if n = 0 then invalid_arg "Quantile.median: no values";
  if n mod 2 = 1 then d.(n / 2) else (d.((n / 2) - 1) +. d.(n / 2)) /. 2.

let quartiles values =
  let d = sorted_copy values in
  let ld = Array.length d in
  if ld < 2 then invalid_arg "Quantile.quartiles: needs at least 2 values";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
  in
  (q 1, q 2, q 3)
