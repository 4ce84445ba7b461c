(* L12 fixture: one export per verdict. *)

val used : int -> int
val unused : int -> int
val for_tests : int -> int

(* spine-lint: allow unused-export -- fixture: a waived export *)
val waived : int -> int
