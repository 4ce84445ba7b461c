(** Alphabets over which strings are indexed.

    The paper's prototype targets DNA (4 symbols, 2 bits each) and protein
    residues (20 symbols, 5 bits each); this module additionally supports
    arbitrary byte alphabets so the index can be exercised on plain text
    and on adversarial test inputs.

    Symbols are manipulated as small integer {e codes} in [\[0, size)].
    Code [size] is reserved by {!Generalized} indexing as a separator and
    is never produced by {!encode}. *)

type t

val dna : t
(** [A C G T], 2 bits per symbol. *)

val protein : t
(** The 20 standard amino-acid one-letter codes, 5 bits per symbol. *)

val byte : t
(** All 256 byte values; mainly for tests and text workloads. *)

val make : string -> t
(** [make symbols] builds a custom alphabet whose code [i] renders as
    [symbols.[i]].  @raise Invalid_argument on empty or duplicated
    symbols, or if more than 255 symbols are given. *)

val size : t -> int
(** Number of symbols (excluding the reserved separator code). *)

val bits : t -> int
(** Bits needed to store one symbol code {e including} the reserved
    separator (3 for DNA, 5 for protein, 8 for bytes); this is the
    width used by bit-packed storage that must round-trip generalized
    (multi-string) sequences. *)

val payload_bits : t -> int
(** Bits needed for the plain symbols only — the paper's space
    accounting figure (2 for DNA, 5 for protein, 8 for bytes; Table 2's
    0.25-byte CharacterLabel row is [payload_bits / 8] for DNA). *)

val encode : t -> char -> int
(** [encode a c] is the code of character [c].
    @raise Invalid_argument if [c] is not in the alphabet. *)

val encode_opt : t -> char -> int option
(** Non-raising variant of {!encode}. *)

val decode : t -> int -> char
(** Inverse of {!encode}. The separator code [size a] renders as ['#'].
    @raise Invalid_argument on out-of-range codes. *)

val separator : t -> int
(** The reserved separator code, equal to [size a]. *)

val equal : t -> t -> bool
(** Structural equality of alphabets. *)
