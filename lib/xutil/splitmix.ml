type t = { mutable state : int64 }

let mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_state state = { state }

let create seed = { state = mix (Int64.of_int seed) }

let next64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  mix t.state

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Mask to 62 bits so the conversion to int is non-negative on 64-bit
     platforms, then reduce. The modulo bias is negligible for the bounds
     used in this code base (all far below 2^32). *)
  let raw = Int64.to_int (Int64.shift_right_logical (next64 t) 2) in
  raw mod bound

let float t bound =
  let raw = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
  bound *. (raw /. 9007199254740992.0 (* 2^53 *))

let split t = { state = mix (next64 t) }

let bits62 t = Int64.to_int (Int64.logand (next64 t) 0x3FFF_FFFF_FFFF_FFFFL)
