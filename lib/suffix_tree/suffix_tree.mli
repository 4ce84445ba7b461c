(** Suffix tree baseline (the paper's "ST").

    A vertically-compacted suffix trie built online with Ukkonen's
    algorithm, including the suffix links that the paper's search
    comparison (Section 4.1) depends on.  The paper used MUMmer's
    industrial-strength implementation; this module provides the same
    algorithmic content — linear-time online construction, suffix-link
    driven matching statistics, subtree occurrence enumeration — in an
    array-based layout comparable to SPINE's.

    {2 Access tracing}

    Both this index and SPINE accept an optional [trace] callback invoked
    on every logical node-record access ([~structure:0 ~index:node
    ~write]).  The disk experiments (Figure 7, Table 7) route these
    traces through a {!Pagestore.Buffer_pool}, reproducing the paper's
    methodology of measuring each structure's locality on a synchronous
    disk rather than its CPU cost. *)

type t

type trace = structure:int -> index:int -> write:bool -> unit

val build : ?trace:trace -> Bioseq.Packed_seq.t -> t
(** Build the suffix tree of the whole sequence (with a unique virtual
    terminator, so every suffix ends at a leaf). *)

(* spine-lint: allow unused-export -- the tests' reference oracle *)
val of_string : ?trace:trace -> Bioseq.Alphabet.t -> string -> t

(** {2 Structure metrics} *)

val node_count : t -> int
(** All nodes: root + internal + leaves.  Up to [2n + 1], the paper's
    "number of nodes may go up to double the length of the string". *)

(* spine-lint: allow unused-export -- the tests' reference oracle *)
val leaf_count : t -> int

val model_bytes_per_char : t -> float
(** Space model: bytes per indexed character of a MUMmer-era C layout
    (16-byte internal nodes, 4-byte leaf entries). Lands near the
    17 bytes/char the paper quotes for standard suffix tree
    implementations; used by the memory-budget experiment of
    Figure 6. *)

(** {2 Search} *)

(* spine-lint: allow unused-export -- the tests' reference oracle *)
val contains : t -> string -> bool

val contains_codes : t -> int array -> bool

val occurrences : t -> int array -> int list
(** Sorted starting positions of every occurrence of the pattern,
    obtained by enumerating the leaves under the pattern's locus. *)

val first_occurrence : t -> int array -> int option
(** Smallest starting position, [None] if absent. *)

(** {2 Matching statistics & maximal matches} *)

type match_stats = {
  nodes_checked : int;
  (** nodes examined while walking edges and following suffix links —
      the paper's Table 6 metric *)
  suffixes_checked : int;
  (** suffix-link follows, i.e. individual suffix candidates tested on
      mismatch (SPINE processes these "on a set basis", ST one by one) *)
}

val matching_statistics :
  ?trace:trace -> t -> Bioseq.Packed_seq.t -> int array * match_stats
(** [matching_statistics t q] returns [ms] where [ms.(i)] is the length
    of the longest substring of the indexed string ending at query
    position [i] (inclusive), computed with the suffix-link walk. *)

type mmatch = {
  query_end : int;     (** 0-based inclusive end position in the query *)
  length : int;        (** length of the matching substring *)
  data_ends : int list;
  (** 0-based inclusive end positions of every occurrence in the data
      string, ascending — the "including repetitions" part of the
      paper's matching operation *)
}

val maximal_matches :
  ?trace:trace -> t -> threshold:int -> Bioseq.Packed_seq.t ->
  mmatch list * match_stats
(** The paper's Section 4 matching operation: all right-maximal matching
    substrings of length >= [threshold] between the indexed string and
    the query, with all their data-side occurrences.  A match is
    reported at query position [i] when the matching-statistics value
    cannot be extended by the next query character (or the query ends),
    exactly the paper's "as soon as the first mismatch is found, the
    length matched till now is reported". *)
