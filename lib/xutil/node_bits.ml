(* Node bitmaps (see node_bits.mli). *)

let set b node =
  let i = node lsr 3 in
  Bytes.set_uint8 b i (Bytes.get_uint8 b i lor (1 lsl (node land 7)))

let mem b node = Bytes.get_uint8 b (node lsr 3) land (1 lsl (node land 7)) <> 0
