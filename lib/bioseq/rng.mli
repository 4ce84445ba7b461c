(** Deterministic pseudo-random number generation.

    All synthetic workloads in this repository are generated through this
    module rather than [Stdlib.Random] so that every experiment is exactly
    reproducible from a seed.  It is {!Xutil.Splitmix}, the SplitMix64
    generator the trace sampler and the fault and latency injectors share. *)

include module type of struct include Xutil.Splitmix end
