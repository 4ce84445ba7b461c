(** The Section 5 store over buffer-pool pages: the one application of
    {!Compact_store.Core} to {!Pagestore.Paged_bytes}, byte for byte
    the layout {!Compact} keeps in RAM, with the LT and RT1..RT4 each in
    its own page region of {!Region_map}.  {!Persistent} runs it over a
    checksummed file, {!Disk} over the simulated device of the paper's
    Section 6.2 experiments. *)

module P : module type of Compact_store.Core (Pagestore.Paged_bytes)

val append : P.t -> int -> unit
val append_seq : P.t -> Bioseq.Packed_seq.t -> unit
(** {!Builder.Make} over {!P}. *)

val tables :
  Pagestore.Buffer_pool.t -> lt_used:int -> rt_used:int array ->
  Pagestore.Paged_bytes.t * Pagestore.Paged_bytes.t array
(** The LT and RT1..RT4 tables at their {!Region_map} regions, with
    the given bytes already allocated (a reopened index's recorded
    lengths). *)

val create : Pagestore.Buffer_pool.t -> Bioseq.Alphabet.t -> P.t
(** A fresh, empty store with the root's LT entry allocated. *)
