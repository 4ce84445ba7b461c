type t = {
  name : string;
  symbols : string;            (* code i renders as symbols.[i] *)
  codes : int array;           (* char -> code, or -1 *)
  bits : int;
  payload_bits : int;
}

let compute_bits n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  go 1

let make_named name symbols =
  let n = String.length symbols in
  if n = 0 then invalid_arg "Alphabet.make: empty alphabet";
  if n > 255 then invalid_arg "Alphabet.make: more than 255 symbols";
  let codes = Array.make 256 (-1) in
  String.iteri
    (fun i c ->
      if codes.(Char.code c) >= 0 then
        invalid_arg "Alphabet.make: duplicate symbol";
      codes.(Char.code c) <- i)
    symbols;
  (* one extra value is reserved for the separator, hence [n + 1] *)
  { name; symbols; codes;
    bits = compute_bits (n + 1);
    payload_bits = compute_bits n }

let make symbols = make_named "custom" symbols

let dna = make_named "dna" "acgt"

let protein = make_named "protein" "ACDEFGHIKLMNPQRSTVWY"

let byte =
  let b = Bytes.create 255 in
  (* 255 symbols so that code 255 stays free for the separator *)
  for i = 0 to 254 do Bytes.set b i (Char.chr i) done;
  make_named "byte" (Bytes.to_string b)

let size t = String.length t.symbols
let bits t = t.bits
let payload_bits t = t.payload_bits
let separator t = size t

let encode_opt t c =
  let v = t.codes.(Char.code c) in
  if v < 0 then None else Some v

let encode t c =
  match encode_opt t c with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Alphabet.encode: %C not in %s" c t.name)

let decode t code =
  if code = size t then '#'
  else if code < 0 || code > size t then
    invalid_arg (Printf.sprintf "Alphabet.decode: code %d out of range" code)
  else t.symbols.[code]

let equal a b = a.symbols = b.symbols
