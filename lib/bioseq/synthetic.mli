(** Synthetic string workloads.

    The paper evaluates on real genomes and proteomes, which are not
    available in this environment.  SPINE's measured characteristics —
    sparse rib distribution (Table 4), small numeric labels (Table 3) and
    top-skewed link destinations (Figure 8) — are driven by one property
    of biological sequence: local compositional bias plus long-range
    approximate repeats.  The generators here reproduce exactly that:

    - {!uniform}: i.i.d. symbols, the {e least} repetitive baseline;
    - {!markov}: order-[k] Markov text with skewed transition tables,
      modelling compositional bias;
    - {!genomic}: Markov text interleaved with copy events that duplicate
      an earlier segment and apply point mutations, modelling repeat
      families (SINEs/LINEs, gene duplications).

    All generators are deterministic given their {!Rng.t}. *)

val uniform : Alphabet.t -> Rng.t -> int -> Packed_seq.t
(** [uniform a rng n] draws [n] symbols independently and uniformly. *)

val markov :
  ?order:int -> ?skew:float -> Alphabet.t -> Rng.t -> int -> Packed_seq.t
(** [markov a rng n] generates order-[order] Markov text (default 2).
    [skew] in [\[0, 1\]] (default 0.6) controls how biased each context's
    transition distribution is: 0 degenerates to uniform, values near 1
    concentrate most mass on one successor. *)

type repeat_profile = {
  repeat_prob : float;      (** probability of starting a copy event at
                                each emitted position *)
  mean_repeat_len : int;    (** geometric mean length of copied segments *)
  mutation_rate : float;    (** per-symbol substitution rate inside copies *)
  order : int;              (** Markov order of the background text *)
  skew : float;             (** background transition skew *)
  clean_copy_prob : float;  (** fraction of copies left mutation-free,
                                modelling recent duplications (these set
                                the maximum exact-repeat length, i.e.
                                the Table 3 label maxima) *)
  long_copy_prob : float;   (** fraction of copies drawn with a
                                [long_copy_factor] times longer mean,
                                modelling segmental duplications *)
  long_copy_factor : int;
}

val genomic :
  ?profile:repeat_profile -> Alphabet.t -> Rng.t -> int -> Packed_seq.t
(** Repeat-injected Markov text of the requested length.  The default
    profile is calibrated so the resulting SPINE statistics fall in the
    paper's reported ranges (28–35 % of nodes carrying downstream
    edges, label maxima a few thousand at the megabase scale). *)

val mutate :
  rate:float -> Rng.t -> Packed_seq.t -> Packed_seq.t
(** [mutate ~rate rng s] substitutes each symbol independently with
    probability [rate]; used to derive "related genome" query strings for
    the cross-matching experiments (Tables 5–7). *)

val fibonacci : Alphabet.t -> int -> Packed_seq.t
(** The Fibonacci word over the first two alphabet symbols, truncated to
    the requested length — a classic adversarial, highly repetitive
    input for suffix structures. *)

val periodic : Alphabet.t -> period:string -> int -> Packed_seq.t
(** [periodic a ~period n] repeats [period] up to length [n]. *)
