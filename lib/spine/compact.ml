module S = Compact_store
module B = Builder.Make (S)

type t = S.t

let engine t =
  Engine.pack ~backend:Compact (module S : Store_sig.S with type t = t) t

(* --- construction --- *)

let create ?capacity alphabet = S.create ?capacity alphabet
let append = B.append

let of_seq seq =
  let t =
    S.create ~capacity:(Int.max 16 (Bioseq.Packed_seq.length seq))
      ~separator:(S.carries_separator seq) (Bioseq.Packed_seq.alphabet seq)
  in
  B.append_seq t seq;
  t

let of_string alphabet s =
  let t = create ~capacity:(Int.max 16 (String.length s)) alphabet in
  B.append_string t s;
  t

