(** Genome-alignment pipeline on top of the string indexes.

    The paper motivates SPINE with MUMmer-style whole-genome alignment:
    find the maximal matching substrings between two long sequences,
    keep the significant ones, and chain a consistent subset into an
    alignment skeleton.  This module implements that pipeline —
    maximal-match enumeration (via either index), uniqueness filtering
    (MUMs proper), and longest-increasing-subsequence chaining — and is
    what the [genome_alignment] example runs. *)

type anchor = {
  ref_pos : int;     (** 0-based start in the reference *)
  query_pos : int;   (** 0-based start in the query *)
  len : int;
}

type engine = [ `Spine | `Suffix_tree ]

val maximal_match_anchors :
  engine:engine -> threshold:int ->
  Bioseq.Packed_seq.t -> Bioseq.Packed_seq.t -> anchor list
(** All (reference, query) occurrence pairs of right-maximal matches of
    length >= [threshold] between the two sequences, sorted by query
    position. The [engine] selects which index implementation does the
    work; both return identical anchor sets (tested). *)

(* spine-lint: allow unused-export -- tests feed it hand-built anchors *)
val unique_anchors : anchor list -> anchor list
(** MUM filtering: keep anchors whose matched substring occurs exactly
    once on each side among the reported anchors (unique ref position
    AND unique query position). *)

(* spine-lint: allow unused-export -- tests feed it hand-built anchors *)
val chain : anchor list -> anchor list
(** Heaviest consistent chain: the subset of anchors strictly
    increasing in both coordinates that maximises total matched length,
    via patience/LIS dynamic programming in O(k log k). This is the
    alignment skeleton MUMmer builds from MUMs. *)

type summary = {
  anchors : int;
  unique : int;
  chained : int;
  chained_bases : int;
  coverage : float;   (** chained bases / query length *)
}

val align :
  ?engine:engine -> threshold:int ->
  Bioseq.Packed_seq.t -> Bioseq.Packed_seq.t -> anchor list * summary
(** Full pipeline: anchors -> unique -> chain, with a summary. *)

(** Approximate (k-mismatch / k-edit) pattern matching over a SPINE
    index; see {!module:Approx}. *)
module Approx = Approx
