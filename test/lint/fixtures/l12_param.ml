module type NEED = sig
  val need : int -> int
end

module type S = sig
  val run : int -> int
  val idle : int
end

module Make (X : NEED) = struct
  let run x = X.need x
  let idle = 0
end
