module S = Compact_store
module B = Builder.Make (S)

type t = S.t

let engine t =
  Engine.pack
    ~caps:{ Engine.backend = "compact"; persistent = false; paged = false }
    (module S : Store_sig.S with type t = t) t

(* --- construction --- *)

let create = S.create
let append = B.append
let append_string = B.append_string

let of_seq seq =
  let t =
    create ~capacity:(max 16 (Bioseq.Packed_seq.length seq))
      (Bioseq.Packed_seq.alphabet seq)
  in
  B.append_seq t seq;
  t

let of_string alphabet s =
  let t = create ~capacity:(max 16 (String.length s)) alphabet in
  append_string t s;
  t

(* --- Section 5 space accounting --- *)

type space = S.space = {
  lt_bytes : int;
  rt_bytes : int;
  rt_slack_bytes : int;
  overflow_bytes : int;
  string_bytes : int;
  migrations : int;
}

let space = S.space
let bytes_per_char = S.bytes_per_char
let live_rows = S.live_rows
let row_bytes = S.row_bytes
let overflow_count = S.overflow_count
let store t = t
