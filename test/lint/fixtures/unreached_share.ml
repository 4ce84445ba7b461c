(* L9 reachability fixture: [encode] shares its name with a query of
   the engine interface and writes a module-level value, but no engine
   query calls it, so it is no query root: no certification row, no
   finding. *)

let last = ref ""

let encode (s : string) =
  last := s;
  String.length s
