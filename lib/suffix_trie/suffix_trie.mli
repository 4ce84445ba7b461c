(** The uncompacted suffix trie of the paper's Figure 1.

    This is the structure both compaction strategies start from: the trie
    holding every suffix of the data string.  It is quadratic in the
    string length and therefore only suitable for short strings; it
    exists as (a) the ground-truth oracle for the compacted indexes and
    (b) the yardstick for quantifying compaction (node counts in the
    trie vs the suffix tree vs SPINE). *)

type t

val build : Bioseq.Packed_seq.t -> t
(** Build the trie of all suffixes. O(n^2) time and space. *)

(* spine-lint: allow unused-export -- the tests' reference oracle *)
val of_string : Bioseq.Alphabet.t -> string -> t

val node_count : t -> int
(** Number of nodes including the root. *)

(* spine-lint: allow unused-export -- the tests' reference oracle *)
val contains : t -> string -> bool
(** Substring test: does a root path spell the argument? *)

(* spine-lint: allow unused-export -- the tests' reference oracle *)
val count_unary : t -> int
(** Nodes with exactly one child — the nodes vertical compaction (suffix
    trees) merges away. *)

(* spine-lint: allow unused-export -- the tests' reference oracle *)
val distinct_substrings : t -> int
(** Number of distinct non-empty substrings of the data string, which is
    exactly [node_count - 1]: every trie node's root path spells a
    distinct substring. Horizontal compaction collapses all of these
    onto a backbone of only [length + 1] nodes. *)
