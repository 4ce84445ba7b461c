open Bigarray

type t = { data : (int32, int32_elt, c_layout) Array1.t; mutable len : int }

let resident = ref 0

let create capacity =
  let data = Array1.create int32 c_layout capacity in
  Array1.fill data 0l;
  resident := !resident + (4 * capacity);
  { data; len = 0 }

let resident_bytes () = !resident

let push t v =
  if t.len = Array1.dim t.data then failwith "Samples.push: capacity reached";
  if v < -1 || v > Int32.to_int Int32.max_int then invalid_arg "Samples.push: out of range";
  Array1.set t.data t.len (Int32.of_int v);
  t.len <- t.len + 1

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Samples.get";
  Int32.to_int (Array1.get t.data i)

let sum ?(from = 0) ?until t =
  let until = Option.value until ~default:t.len in
  let s = ref 0 in
  for i = from to until - 1 do s := !s + get t i done;
  !s
