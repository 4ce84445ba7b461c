(** The SPINE index in the paper's optimised Section 5 layout.

    Functionally identical to {!Index} (the test suite enforces search
    parity through {!Engine}), but stored as the paper's Link Table +
    Rib Tables with 2-byte labels and an overflow side table.  This is
    the representation whose space the paper reports ("less than 12
    bytes per indexed character"); {!Disk} pages the very same bytes
    through a buffer pool for the disk-resident experiments.  Queries
    go through {!engine}. *)

type t

val engine : t -> Engine.t
(** Pack as a capability-aware engine (backend "compact").  Build once
    and reuse. *)

(** {2 Construction} *)

val create : ?capacity:int -> Bioseq.Alphabet.t -> t
val append : t -> int -> unit
val append_string : t -> string -> unit
val of_seq : Bioseq.Packed_seq.t -> t
val of_string : Bioseq.Alphabet.t -> string -> t

(** {2 Space accounting (Section 5)} *)

type space = Compact_store.space = {
  lt_bytes : int;
  rt_bytes : int;
  rt_slack_bytes : int;
  overflow_bytes : int;
  string_bytes : int;
  migrations : int;
}

val space : t -> space

val bytes_per_char : t -> float
(** Total live bytes per indexed character; the paper's headline
    "less than 12 bytes" metric. *)

val live_rows : t -> int -> int
(** Live rows in RT1..RT4 ([0..3]). *)

val row_bytes : t -> int -> int
val overflow_count : t -> int

val store : t -> Compact_store.t
