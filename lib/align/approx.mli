(** Approximate pattern matching over a SPINE index.

    The paper motivates string indexes with applications that need
    "exact or approximate matches" (Section 1) and positions complete
    indexes like SPINE as the exact-and-fast layer that approximate
    pipelines build on (the Section 7 discussion of the MRS filter).
    This module provides that layer's classic construction: pigeonhole
    {e seed-and-extend}.  A pattern tolerating [k] errors is split into
    [k + 1] seeds, at least one of which must occur exactly; exact seed
    hits come from the SPINE index, and candidate positions are verified
    by direct comparison (Hamming) or banded dynamic programming
    (edit distance) against the backbone's vertebra labels — SPINE keeps
    the text, so no external copy is needed. *)

type hit = {
  pos : int;        (** 0-based start of the match in the data string *)
  errors : int;     (** mismatches (Hamming) or edits (Levenshtein) *)
  match_len : int;  (** data-side length: pattern length for Hamming,
                        possibly shorter/longer for edits *)
}

val hamming : Spine.Compact.t -> pattern:int array -> k:int -> hit list
(** All positions where the pattern occurs with at most [k]
    substitutions, ascending, each with its exact mismatch count.
    @raise Invalid_argument if [k < 0] or the pattern is empty. *)

val edit : Spine.Compact.t -> pattern:int array -> k:int -> hit list
(** All start positions where some substring within edit distance [k]
    of the pattern begins, ascending by position, keeping for each
    position the smallest edit distance (and the shortest such
    data-side length). Verification is banded DP of width [2k + 1].
    @raise Invalid_argument if [k < 0] or the pattern is empty. *)
