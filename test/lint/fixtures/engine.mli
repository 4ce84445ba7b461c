(* The query surface the domain-safety fixtures are rooted at. *)

type t

val occurrences : t -> string -> int list
val occurrences_pattern : t -> int array -> int list
val encode : t -> string -> int array option
