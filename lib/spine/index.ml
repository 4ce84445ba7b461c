module S = Fast_store
module B = Builder.Make (S)

type t = S.t

let engine t =
  Engine.pack
    ~caps:{ Engine.backend = "fast"; persistent = false; paged = false }
    (module S : Store_sig.S with type t = t) t

(* --- construction --- *)

let create ?capacity alphabet = S.create ?capacity alphabet

let append = B.append
let append_string = B.append_string

let of_seq seq =
  Trace.span "build" [ Trace.Int ("length", Bioseq.Packed_seq.length seq) ]
  @@ fun () ->
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

(* --- fast-store specifics --- *)

let model_bytes = S.model_bytes

let link t i = (S.link_dest t i, S.link_lel t i)
let rib t node code = S.find_rib t node code
let extrib t node =
  Option.map (fun (dest, pt, prt, _anchor) -> (dest, pt, prt))
    (S.find_extrib t node)
let store t = t
let of_store s = s
