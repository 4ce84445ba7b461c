(** Suffix array baseline (Manber–Myers).

    The paper's related-work section positions suffix arrays as the
    space-frugal alternative (about 6 bytes per indexed character) that
    pays with supra-linear construction and slower individual queries
    (binary search instead of edge walking).  This module provides the
    classic prefix-doubling construction plus Kasai's LCP array, used by
    the space/ablation benches to complete the index landscape SPINE is
    compared against. *)

type t

val build : Bioseq.Packed_seq.t -> t
(** O(n log n) prefix-doubling construction. *)

(* spine-lint: allow unused-export -- the tests' reference oracle *)
val of_string : Bioseq.Alphabet.t -> string -> t

(* spine-lint: allow unused-export -- the tests' reference oracle *)
val length : t -> int

(* spine-lint: allow unused-export -- the tests' reference oracle *)
val suffix_at : t -> int -> int
(** [suffix_at t r] is the start position of the rank-[r] suffix. *)

(* spine-lint: allow unused-export -- the tests' reference oracle *)
val lcp : t -> int array
(** Kasai LCP array: [lcp.(r)] is the longest common prefix length of
    the rank-[r] and rank-[r-1] suffixes ([lcp.(0) = 0]). Computed
    lazily and cached. *)

(* spine-lint: allow unused-export -- the tests' reference oracle *)
val occurrences : t -> int array -> int list
(** Start positions of all occurrences, ascending, by binary search for
    the pattern's rank range. O(m log n + occ). *)

val model_bytes_per_char : t -> float
(** 4-byte suffix array entry plus 2-byte bucketed LCP per character —
    the ~6 bytes/char figure the paper quotes. *)
