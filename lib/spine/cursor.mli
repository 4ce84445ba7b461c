(** Incremental valid-path cursor over a SPINE index.

    The paper closes (Section 8) by arguing that SPINE's linearity makes
    it "more amenable for integration with database engines"; this
    module is that integration surface: a small stateful iterator that a
    query operator can drive character by character — the way a LIKE
    predicate or a streaming tokenizer consumes input — without
    re-walking from the root.

    A cursor always represents a {e match in progress}: the window of
    characters accepted so far, positioned at its termination node (the
    end of its first occurrence in the indexed string). [advance]
    extends the window on the right by one character; [drop_front]
    shrinks it on the left (following backward links), which is exactly
    the state transition streaming matchers need on a mismatch.

    The cursor is written once, as {!Make} over {!Store_sig.S}, so
    every storage backend — compact, persistent, disk — supports
    incremental cursors; {!Engine.cursor} packages them uniformly. *)

(** The cursor surface over one store type. *)
module type S = sig
  type store
  type t

  val create : store -> t
  (** A cursor for the empty match, at the root. *)

  val reset : t -> unit

  val advance : t -> int -> bool
  (** [advance c code] tries to extend the current match by one
      character. On success the cursor moves and [true] is returned; on
      failure the cursor is unchanged. *)

  val advance_char : t -> char -> bool
  (** {!advance} with alphabet encoding; [false] for characters outside
      the alphabet. *)

  val advance_pattern : t -> Bioseq.Packed_seq.Pattern.t -> int
  (** Extend the current match by as many of the pattern's codes as
      form valid-path steps, comparing vertebra runs word-at-a-time
      against the packed text row.  Returns the number of codes
      consumed; a result short of the pattern length means the walk got
      stuck (the cursor keeps the partial extension). *)

  val drop_front : t -> unit
  (** Remove the first character of the current match, repositioning at
      the termination node of the remaining suffix.
      @raise Invalid_argument on the empty match. *)

  val longest_extension : t -> int -> unit
  (** [longest_extension c code]: the streaming-matcher step — shrink
      the match from the front just enough (possibly to empty) so that
      it can be extended by [code], then extend if possible. Equivalent
      to repeated {!drop_front} + {!advance}, but takes the same
      shortcuts as {!Matcher} (rib thresholds at the current node, then
      link hops). After the call the cursor holds the longest suffix of
      (previous match + character) present in the data. *)

  val length : t -> int
  (** Characters currently matched. *)

  val node : t -> int
  (** Termination node: end of the first occurrence of the current
      match; [0] for the empty match. *)

  val first_occurrence : t -> int option
  (** Start position of the first occurrence, [None] for the empty
      match. *)

  val occurrences : t -> int list
  (** Start positions of all occurrences of the current match
      (a backbone scan; intended for when the driver decides the match
      is final). *)
end

module Make (St : Store_sig.S) : S with type store = St.t
