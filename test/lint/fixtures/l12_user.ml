(* L12 fixture: the program side, using the exports the rule must
   count as used. *)

module M = L12_param.Make (L12_arg)

module type KEY = sig
  val key : int
end

let packed = (module L12_packed : KEY)
let total = L12_api.used (M.run L12_clean.answer)
