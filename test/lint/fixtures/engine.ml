(* The fixtures' query surface, dispatching as the real engine does:
   through a packed store module, so each call resolves by name and
   arity to every fixture function it could mean.  Each query opens
   its own store, so a write to one is charged to the fixture module
   that makes it.  [encode] calls nothing named [encode], so
   [Unreached_share.encode] is no query root. *)

module type STORE = sig
  type store

  val open_store : unit -> store
  val occurrences : store -> string -> int list
  val occurrences_pattern : store -> int array -> int list
end

type t = (module STORE)

let occurrences (module S : STORE) pat = S.occurrences (S.open_store ()) pat

let occurrences_pattern (module S : STORE) pattern =
  S.occurrences_pattern (S.open_store ()) pattern

let encode (_ : t) s =
  Some (Array.init (String.length s) (fun i -> Char.code s.[i]))
