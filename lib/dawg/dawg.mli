(** Directed Acyclic Word Graph (suffix automaton) baseline.

    The paper's related work (Section 7) identifies DAWGs as the only
    prior approach to {e horizontal} trie compaction, at around 34 bytes
    per indexed character for DNA — and notes two shortcomings SPINE
    fixes: incomplete compaction (DAWG state counts still exceed the
    string length) and the loss of position information (DAWG states do
    not correspond to character positions).

    This module implements the classic online suffix-automaton
    construction (Blumer et al.), used by the space experiment to place
    SPINE among its horizontal-compaction relatives and by the test
    suite as yet another independent membership oracle. *)

type t

val build : Bioseq.Packed_seq.t -> t
(** Online construction, O(n * alphabet) with the sibling-list
    transition representation used here. *)

(* spine-lint: allow unused-export -- the tests' reference oracle *)
val of_string : Bioseq.Alphabet.t -> string -> t

val state_count : t -> int
(** Between [n + 1] and [2n - 1] — more than SPINE's [n + 1], the
    paper's "unable to achieve complete horizontal compaction". *)

(* spine-lint: allow unused-export -- the tests' reference oracle *)
val contains : t -> string -> bool

(* spine-lint: allow unused-export -- the tests' reference oracle *)
val count_occurrences : t -> int array -> int
(** Number of occurrences of the pattern, from endpos-set sizes — note
    that unlike SPINE the automaton cannot {e locate} them without
    auxiliary structures, the paper's "they lack position
    information". *)
