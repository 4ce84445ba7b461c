(* Code-array and string shorthands over Engine for the tests, which
   generate their patterns as code arrays: pack at the engine edge,
   then take the packed query. *)

module E = Spine.Engine

let occurrences e codes = E.occurrences_pattern e (E.pattern e codes)
let end_nodes e codes = E.end_nodes_pattern e (E.pattern e codes)
let contains e codes = E.contains_pattern e (E.pattern e codes)

let first_occurrence e codes =
  Option.map
    (fun end_node -> end_node - Array.length codes)
    (E.find_first_pattern e (E.pattern e codes))

(* [false] for a string with characters outside the alphabet *)
let contains_string e s =
  match E.pattern_of_string e s with
  | Some p -> E.contains_pattern e p
  | None -> false

let occurrences_many e patterns =
  List.map (fun it -> it.E.positions) (E.run_batch e patterns)
