(** Engine layer: the one SPINE query surface, served by any
    backend.

    The SPINE algorithms are functors over {!Store_sig.S}.  {!pack}
    applies them ({!Search}/{!Matcher}/{!Stats}/{!Cursor}) to one store
    and bundles the result with its {!backend} and a liveness [guard]
    into a first-class {!t}.  Every query in the
    repository — the CLI, the experiments, the batch path,
    cross-backend differential tests — goes through this handle; the
    front-ends ({!Compact}, {!Persistent}, {!Disk}, {!Generalized})
    only construct stores and offer the operations specific to their
    storage.

    Patterns are packed once, at this edge, into
    {!Bioseq.Packed_seq.Pattern.t} ({!pattern}, {!pattern_of_string});
    the descent and the occurrence scan consume the packed row
    word-at-a-time.

    The paper closes (Section 8) by arguing SPINE's linearity makes it
    "more amenable for integration with database engines"; this layer
    is that integration surface: a database operator can hold an
    [Engine.t] without caring whether the Section 5 bytes live in
    memory, in a paged file, or on a simulated disk. *)

(** {2 Backends} *)

type backend =
  | Compact     (** {!Compact}: the Section 5 layout in memory *)
  | Persistent  (** {!Persistent}: that layout paged in a file *)
  | Disk        (** {!Disk}: that layout paged on the simulated device *)

(** {2 Canonical result types}

    Aliases of the single definitions in {!Matcher} and {!Stats}. *)

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

(** {2 Packed backends} *)

type t

val pack :
  ?guard:(unit -> unit) ->
  ?space_extra:(unit -> (string * int) list) ->
  backend:backend ->
  (module Store_sig.S with type t = 's) -> 's -> t
(** [pack (module S) store] packs a store with its instantiated
    algorithms into an engine.  [guard] (default none) raises when the
    backend is unusable (e.g. a closed persistent index); it runs
    before every query.  Construction applies the algorithm
    functors — cheap, but callers should build an engine once and
    reuse it rather than re-packing per query.  [space_extra] (default
    none) lets paged constructors report storage components that live
    outside the store — buffer-pool frames, device pages — into
    {!space}. *)

(** {2 The query surface} *)

val backend : t -> string
(** [backend_name] of the backend the engine was packed with. *)

val alphabet : t -> Bioseq.Alphabet.t
val length : t -> int
val node_count : t -> int
val encode : t -> string -> int array option
(** Encode a pattern string in the backend's alphabet; [None] if any
    character is outside it. *)

(** {2 Packed patterns}

    A query packed once, at the engine edge, into the word layout of
    {!Bioseq.Packed_seq}: the descent and occurrence resolution then
    compare whole words against the text row, falling back to per-code
    steps only at span boundaries and rib/extrib transitions.  Callers
    re-running a pattern should build it once and reuse it. *)

val pattern : t -> int array -> Bioseq.Packed_seq.Pattern.t
(** Pack a code array once, at the cell width of the backend's text row
    ({!Bioseq.Packed_seq.pattern}).  Out-of-alphabet codes are accepted
    and simply never match.  A pattern built before the text widened
    still answers correctly, comparing per code. *)

val pattern_of_string : t -> string -> Bioseq.Packed_seq.Pattern.t option
(** {!encode} followed by {!pattern}; [None] if any character is
    outside the backend's alphabet. *)

val contains_pattern : t -> Bioseq.Packed_seq.Pattern.t -> bool

val find_first_pattern : t -> Bioseq.Packed_seq.Pattern.t -> int option
(** End node of the first occurrence, or [None]. *)

val occurrences_pattern : t -> Bioseq.Packed_seq.Pattern.t -> int list
(** 0-based start positions, ascending. *)

val occurrences_batch : t -> (int * int) array -> Xutil.Int_vec.t array
(** The raw deferred-scan machinery: given [(first-occurrence end node,
    length)] pairs, resolve every occurrence of all of them in one
    sequential backbone pass, one ascending end-node buffer per
    pattern. *)

val matching_statistics :
  t -> Bioseq.Packed_seq.t -> int array * match_stats

val maximal_matches :
  ?immediate:bool ->
  t -> threshold:int -> Bioseq.Packed_seq.t -> mmatch list * match_stats

val label_maxima : t -> label_maxima
val rib_distribution : t -> int array
val edge_counts : t -> edge_counts
val link_histogram : t -> buckets:int -> int array

val profiled : t -> (unit -> 'a) -> 'a * Profile.t
(** [profiled e f] checks [e]'s guard, then runs [f] as a profiled
    scope of the calling domain (see {!Profile.profiled}): every
    traversal step, backbone scan node,
    occurrence and buffer-pool/device transfer performed inside [f] is
    attributed to the returned profile.  Scopes nest by shadowing. *)

val space : t -> Space_report.t
(** Measured footprint of the backend, attributed to named components:
    the store's {!Store_sig.S.space_components} plus the constructor's
    [space_extra] (pool frames, device pages).  Also publishes the
    report as telemetry gauges ([space.<backend>.<component>_bytes])
    when collection is enabled. *)

(** {2 Batched queries}

    Many patterns, one deferred backbone scan: each pattern pays its
    own cheap valid-path walk for the first occurrence, then the
    occurrence resolution of {e all} patterns shares a single
    sequential pass (the paper's Section 4 target-node-buffer strategy,
    previously reachable only through the functor layer). *)

type batch_item = {
  pattern : int array;
  count : int;            (** number of occurrences *)
  positions : int list;   (** ascending start positions, empty if absent *)
}

val run_batch : t -> int array list -> batch_item list
(** One result per input pattern, in order.  Each pattern is packed
    once, under the one guard check. *)

(** {2 Cursors}

    Incremental valid-path cursors (see {!Cursor}) over any backend —
    including compact, persistent and disk stores. *)

type cursor = {
  advance : int -> bool;
  advance_char : char -> bool;
  advance_pattern : Bioseq.Packed_seq.Pattern.t -> int;
    (** Word-at-a-time extension: consumes as many pattern codes as
        form valid-path steps and returns how many. *)
  drop_front : unit -> unit;
  longest_extension : int -> unit;
  reset : unit -> unit;
  length : unit -> int;
  node : unit -> int;
  first_occurrence : unit -> int option;
  occurrences : unit -> int list;
}

val cursor : t -> cursor
(** A fresh cursor at the root.  Every operation re-checks the
    backend's guard, so a cursor over a closed persistent index raises
    rather than reading freed pages. *)
