(** A fixed-capacity vector of small ints kept outside the OCaml heap,
    for the one latency and one answer the benchmark stores per request
    (more than a million of each per run on mem-lookup).

    On the OCaml heap these would grow the major heap with the request
    count, which follows host speed.  Here every slot of a vector is
    written when it is created, so the memory the vectors hold is fixed
    from then on, and {!resident_bytes} says how much it is:
    [peak_rss_mb] subtracts it, and so follows the program rather than
    the benchmark's bookkeeping or the host's speed. *)

type t

val create : int -> t
(** [create capacity]: 4 bytes per slot, all written now. *)

val resident_bytes : unit -> int
(** Bytes held by every vector created so far. *)

val push : t -> int -> unit
(** Stores a value in [\[-1, 2^31 - 1\]]: a latency in nanoseconds, an
    answer digest, or -1.
    @raise Failure once every slot is written.
    @raise Invalid_argument for a value out of that range. *)

val length : t -> int
val get : t -> int -> int

val sum : ?from:int -> ?until:int -> t -> int
(** Sum of the slots [\[from, until)], by default all. *)
