(* The engine layer: the entire SPINE query surface,
   written once, served by any storage backend packed as a first-class
   module.  See engine.mli for the architecture notes. *)

let c_batches = Telemetry.counter "engine.batches"
let c_batch_patterns = Telemetry.counter "engine.batch_patterns"

type backend = Compact | Persistent | Disk

let backend_name = function
  | Compact -> "compact"
  | Persistent -> "persistent"
  | Disk -> "disk"

type match_stats = Matcher.stats = {
  nodes_checked : int;
  suffixes_checked : int;
}

type mmatch = Matcher.mmatch = {
  query_end : int;
  length : int;
  data_ends : int list;
}

type label_maxima = Stats.label_maxima = {
  max_pt : int;
  max_lel : int;
  max_prt : int;
}

type edge_counts = Stats.edge_counts = {
  vertebras : int;
  ribs : int;
  extribs : int;
  links : int;
}

module type BACKEND = sig
  module S : Store_sig.S
  module Q : Search.S with type store = S.t
  module M : Matcher.S with type store = S.t
  module St : Stats.S with type store = S.t
  module C : Cursor.S with type store = S.t

  val store : S.t
  val backend : backend
  val guard : unit -> unit
  val space_extra : unit -> (string * int) list
end

type t = (module BACKEND)

(* The query functors are applied here, once per packed store. *)
let pack (type s) ?(guard = ignore) ?(space_extra = fun () -> []) ~backend
    (module S : Store_sig.S with type t = s) (store : s) : t =
  (module struct
    module S = S
    module Q = Search.Make (S)
    module M = Matcher.Make (S)
    module St = Stats.Make (S)
    module C = Cursor.Make (S)

    let store = store
    let backend = backend
    let guard = guard
    let space_extra = space_extra
  end)

(* --- the query surface, defined exactly once --- *)

let backend (module B : BACKEND) = backend_name B.backend

let alphabet (module B : BACKEND) =
  B.guard ();
  B.S.alphabet B.store

let length (module B : BACKEND) =
  B.guard ();
  B.S.length B.store

let node_count (module B : BACKEND) =
  B.guard ();
  B.S.length B.store + 1

let encode (module B : BACKEND) s =
  B.guard ();
  let alphabet = B.S.alphabet B.store in
  try
    Some (Array.init (String.length s)
            (fun i -> Bioseq.Alphabet.encode alphabet s.[i]))
  with Invalid_argument _ -> None

(* Pattern-based entry points: the query is packed exactly once, here
   at the engine edge, and every downstream scan consumes the packed
   row word-at-a-time. *)

let pattern (module B : BACKEND) codes =
  B.guard ();
  Bioseq.Packed_seq.pattern (B.S.sequence B.store) codes

let pattern_of_string e s = Option.map (pattern e) (encode e s)

let contains_pattern (module B : BACKEND) p =
  B.guard ();
  B.Q.contains_pattern B.store p

let find_first_pattern (module B : BACKEND) p =
  B.guard ();
  B.Q.find_first_pattern B.store p

let occurrences_pattern (module B : BACKEND) p =
  B.guard ();
  B.Q.occurrences_pattern B.store p

let occurrences_batch (module B : BACKEND) firsts =
  B.guard ();
  B.Q.occurrences_batch B.store firsts

let matching_statistics (module B : BACKEND) q =
  B.guard ();
  B.M.matching_statistics B.store q

let maximal_matches ?immediate (module B : BACKEND) ~threshold q =
  B.guard ();
  B.M.maximal_matches ?immediate B.store ~threshold q

let label_maxima (module B : BACKEND) =
  B.guard ();
  B.St.label_maxima B.store

let rib_distribution (module B : BACKEND) =
  B.guard ();
  B.St.rib_distribution B.store

let edge_counts (module B : BACKEND) =
  B.guard ();
  B.St.edge_counts B.store

let link_histogram (module B : BACKEND) ~buckets =
  B.guard ();
  B.St.link_histogram B.store ~buckets

let space (module B : BACKEND) =
  B.guard ();
  let report =
    Space_report.make ~backend:(backend_name B.backend)
      ~chars:(B.S.length B.store)
      (B.S.space_components B.store @ B.space_extra ())
  in
  Space_report.set_gauges report;
  report

(* The guarded profiling entry point: checks backend liveness once,
   then runs [f] as a profiled scope (see Profile.profiled).  Queries
   issued inside [f] against this engine — or any engine on the same
   domain — are charged to the returned profile. *)
let profiled (module B : BACKEND) f =
  B.guard ();
  Profile.profiled f

(* --- batched query path --- *)

type batch_item = {
  pattern : int array;
  count : int;
  positions : int list;
}

let run_batch (module B : BACKEND) patterns =
  B.guard ();
  Telemetry.incr c_batches;
  Telemetry.add c_batch_patterns (List.length patterns);
  Trace.span "engine.run_batch"
    [ Trace.Int ("patterns", List.length patterns);
      Trace.Str ("backend", backend_name B.backend) ]
  @@ fun () ->
  let text = B.S.sequence B.store in
  let results =
    B.Q.occurrences_many B.store
      (List.map (Bioseq.Packed_seq.pattern text) patterns)
  in
  List.mapi
    (fun i pattern ->
      let positions = results.(i) in
      { pattern; count = List.length positions; positions })
    patterns

(* --- cursors --- *)

type cursor = {
  advance : int -> bool;
  advance_char : char -> bool;
  advance_pattern : Bioseq.Packed_seq.Pattern.t -> int;
  drop_front : unit -> unit;
  longest_extension : int -> unit;
  reset : unit -> unit;
  length : unit -> int;
  node : unit -> int;
  first_occurrence : unit -> int option;
  occurrences : unit -> int list;
}

let cursor (module B : BACKEND) =
  B.guard ();
  let c = B.C.create B.store in
  let g = B.guard in
  { advance = (fun code -> g (); B.C.advance c code);
    advance_char = (fun ch -> g (); B.C.advance_char c ch);
    advance_pattern = (fun p -> g (); B.C.advance_pattern c p);
    drop_front = (fun () -> g (); B.C.drop_front c);
    longest_extension = (fun code -> g (); B.C.longest_extension c code);
    reset = (fun () -> B.C.reset c);
    length = (fun () -> B.C.length c);
    node = (fun () -> B.C.node c);
    first_occurrence = (fun () -> B.C.first_occurrence c);
    occurrences = (fun () -> g (); B.C.occurrences c) }
