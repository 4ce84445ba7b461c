(* L12 fixture: every export has a caller. *)

val answer : int
