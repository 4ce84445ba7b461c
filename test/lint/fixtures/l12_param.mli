(* L12 fixture: a functor.  [NEED] is only taken as a parameter, so its
   member is a requirement; [S] is returned, so its members are
   exports. *)

module type NEED = sig
  val need : int -> int
end

module type S = sig
  val run : int -> int
  val idle : int
end

module Make (X : NEED) : S
