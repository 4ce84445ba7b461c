(* L12 fixture: a functor argument.  [need] is used by being passed
   where [L12_param.NEED] names it; [spare] is not. *)

val need : int -> int
val spare : int -> int
