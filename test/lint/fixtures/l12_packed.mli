(* L12 fixture: a first-class module.  [key] is used by being packed
   where [L12_user.KEY] names it; [extra] is not. *)

val key : int
val extra : int
