(** SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): the one generator
    behind every seeded stream in the repository — synthetic corpora
    ([Bioseq.Rng] is this module), trace sampling, fault plans and
    latency plans.  It is fast, has a 64-bit state, and passes
    BigCrush.  Each step adds the golden-ratio gamma
    [0x9E3779B97F4A7C15] to the state; a draw is the finaliser
    (Stafford's variant 13, a bijection on 64 bits) of the new
    state. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] starts from the finalised seed.  Two
    generators with the same seed produce identical streams. *)

val of_state : int64 -> t
(** A generator whose state is exactly the given word (no finaliser):
    how the trace sampler and the fault and latency plans seed. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)] (from the top 62 bits).
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)] (from the top 53
    bits). *)

val split : t -> t
(** [split t] derives an independent generator and advances [t]; used to
    give sub-tasks their own streams without coupling their consumption. *)

val bits62 : t -> int
(** The next draw's low 62 bits: a non-negative [int] on 64-bit OCaml,
    where [Int64.to_int] of anything wider wraps negative. *)
