(* Code-array and string shorthands over Engine for the tests, which
   generate their patterns as code arrays: pack at the engine edge,
   then take the packed query. *)

module E = Spine.Engine

let occurrences e codes = E.occurrences_pattern e (E.pattern e codes)
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

(* A structural checker's verdict as a test failure naming the first
   violations. *)
let valid violations =
  match violations with
  | [] -> ()
  | vs ->
    Alcotest.failf "%d violation(s): %s" (List.length vs)
      (vs
      |> List.filteri (fun i _ -> i < 5)
      |> List.map (fun (v : Spine.Validate.violation) -> v.where ^ ": " ^ v.what)
      |> String.concat "; ")

(* The backbone a generalized index builds: the strings joined by the
   alphabet's separator, in a store with the separator layout. *)
let generalized alphabet strings =
  let idx = Spine.Compact_store.create ~separator:true alphabet in
  let append ch = Spine.Compact.append idx (Bioseq.Alphabet.encode alphabet ch) in
  List.iteri
    (fun i s ->
      if i > 0 then Spine.Compact.append idx (Bioseq.Alphabet.separator alphabet);
      String.iter append s)
    strings;
  idx
