(* L9 fixture: a packed-pattern query root mutating its shared store
   argument — [occurrences_pattern] must be a query root, so the write
   in [remember] is flagged and the module certifies UNSAFE. *)

type store = { mutable last : int array; data : string }

let remember t (pattern : int array) = t.last <- pattern

let occurrences_pattern t (pattern : int array) =
  remember t pattern;
  [ Array.length pattern ]
