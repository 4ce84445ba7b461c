(** Answer checking against an independent oracle.

    Every answer a workload collects during its timed phase is compared
    afterwards with {!Suffix_tree}'s answer for the same request.  A
    mismatch, or a request that raised instead of answering, counts as
    one failure; the run's [failed_frac] is [failed / attempted] and any
    failure makes the benchmark exit 1. *)

type t

val create : unit -> t

val expect : t -> bool -> (unit -> string) -> unit
(** [expect t ok describe] counts one attempted answer, and one failure
    when [ok] is false; the first few failures keep [describe ()] as a
    diagnostic. *)

val attempted : t -> int
val failed : t -> int
val diagnostics : t -> string list
(** The kept failure descriptions, oldest first. *)

val digest : int list -> int
(** Order-sensitive 30-bit hash of an occurrence list, so a run keeps
    one small int per answer instead of the whole list. *)

val digest_array : int array -> int
(** {!digest} of the array's elements, without building the list. *)
