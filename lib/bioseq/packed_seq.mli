(** Bit-packed, word-addressable sequences of alphabet codes.

    A [Packed_seq.t] is the in-memory {e and} serialized representation
    of a data string: codes packed [width] bits each (2 for DNA, 4 once
    a DNA separator appears, 8 for proteins/bytes) into the native
    63-bit integers of a plain [int array], [62 / width] codes per
    word — 31 DNA characters per word.  The scan paths compare whole
    words ({!mismatch}, {!compare_span}: XOR plus count-trailing-zeros),
    the last partial word masked to the codes left; {!packed_bits} is a
    raw dump of the words, so the persistent sequence region stores the
    row as-is with no re-packing.  This module is the one owner of that
    byte layout: {!byte_length} and {!last_code_byte} answer what a
    store mirroring the row on disk needs to know.

    The module is a checked unsafe boundary (spine-lint L11): {!get}
    and every span operation validate their bounds once at the edge,
    raising [Invalid_argument] on violation; the word accessors inside
    are unchecked.  The cell width adapts upward automatically: a code
    that does not fit the current width (e.g. the DNA separator, code
    4, in a 2-bit row) re-packs the whole row at the next width, at
    most twice ever (2 -> 4 -> 8). *)

type t

val create : ?capacity:int -> Alphabet.t -> t
(** Fresh empty sequence ([capacity] in codes). *)

val of_string : Alphabet.t -> string -> t
(** [of_string a s] encodes every character of [s].
    @raise Invalid_argument if a character is not in [a]. *)

val of_codes : Alphabet.t -> int array -> t
(** Build from raw codes. @raise Invalid_argument on out-of-range codes
    (the separator code is allowed). *)

val alphabet : t -> Alphabet.t
val length : t -> int

val width : t -> int
(** Current cell width in bits: 2, 4 or 8. *)

val get : t -> int -> int
(** [get t i] is the code at position [i] (0-based).  This is the safe
    boundary accessor: @raise Invalid_argument when [i] is outside
    [0, length t). *)

val append : t -> int -> unit
(** Append one code (separator allowed), growing — and if the code
    needs a wider cell, re-packing — the row as needed. *)

val sub_string : t -> pos:int -> len:int -> string
(** Decode a slice back to characters. *)

(** {2 Word-at-a-time span comparison}

    The hot-path primitives behind the backbone descent, the
    matching-statistics extension and the cursor walk.  Both
    {!mismatch} and {!mismatch_pattern} return
    [(match_len, word_steps, scalar_steps)]: the length of the longest
    common prefix of the two spans, the number of word comparisons
    performed, and the number of per-code comparisons performed.  When
    the two rows share a cell width, a span of [len] codes is compared
    a word at a time, the last partial word masked to the codes left,
    so it takes at most [ceil (len / codes_per_word)] word steps
    (stopping at the word that holds the first difference) and no
    per-code step.  Per-code steps remain only when the cell widths
    differ (the packed forms are not directly comparable) or a
    pattern holds a code that cannot be packed at the text's width.
    Word indexes come from a match on the three cell widths, so no
    comparison pays a runtime division.  The step counts are
    deterministic for fixed inputs — they feed the
    [word_steps]/[scalar_steps] profile counters. *)

val mismatch : t -> apos:int -> t -> bpos:int -> len:int -> int * int * int
(** [mismatch a ~apos b ~bpos ~len] compares [a.[apos..apos+len)]
    against [b.[bpos..bpos+len)].
    @raise Invalid_argument if either span overruns its sequence. *)

val compare_span : t -> apos:int -> t -> bpos:int -> len:int -> bool
(** Whole-span equality via {!mismatch}. *)

(** Patterns: a query string packed once, against the text row it
    will be compared with, and immutable from then on — so one pattern
    may be shared by queries on several domains. *)
module Pattern : sig
  type t

  val length : t -> int

  val get : t -> int -> int
  (** The [i]-th pattern code (safe array access). *)
end

val pattern : t -> int array -> Pattern.t
(** [pattern text codes] copies [codes] and packs them at [text]'s
    current cell width.  Accepts any int codes (never raises):
    out-of-alphabet codes simply never match, exactly like the unpacked
    search path. *)

val mismatch_pattern :
  t -> pos:int -> Pattern.t -> ppos:int -> len:int -> int * int * int
(** [mismatch_pattern t ~pos p ~ppos ~len] is {!mismatch} of the text
    span against the pattern span.  It compares words when [p] was
    packed at [t]'s cell width, and per code otherwise: when a code of
    [p] does not fit that width (it can never match a text code), or
    when [t] widened after [p] was built.
    @raise Invalid_argument if either span overruns. *)

(** {2 Stored form and space accounting} *)

val packed_bits : t -> Bytes.t
(** The raw backing words of the used prefix, 8 bytes per word,
    little-endian, tail padding (zeros) included.  This {e is} the
    serialized form: {!of_packed_bits} rebuilds the row by copying the
    words back, no per-code re-packing. *)

val of_packed_bits : Alphabet.t -> len:int -> width:int -> Bytes.t -> t
(** Inverse of {!packed_bits} given the code count and cell width.
    @raise Invalid_argument on an unsupported width, a short payload,
    stray bits in the padding (bits 62 and 63 of every word included),
    or codes outside the alphabet. *)

val packed_byte_length : t -> int
(** Bytes of {!packed_bits} output: [used words * 8]. *)

val byte_length : width:int -> int -> int
(** [byte_length ~width len] is {!packed_byte_length} of a row of [len]
    codes at cell width [width]. *)

val last_code_byte : t -> int * int
(** [(offset, value)] of the {!packed_bits} byte that holds the last
    code: appending a code changes that byte of the serialized form
    alone, unless the row widened.
    @raise Invalid_argument on an empty row. *)

val copy : t -> t

val iteri : t -> f:(int -> int -> unit) -> unit
(** [iteri t ~f] calls [f pos code] for each position in order. *)
