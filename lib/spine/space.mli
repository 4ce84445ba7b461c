(** The paper's space accounting (Section 5, Table 2).

    Table 2 prices the naive one-record-per-node layout at 48.25 bytes
    per node for DNA; the optimisations of Section 5 (implicit vertebra
    destinations, 2-byte labels, fanout-segregated rib tables) bring the
    measured cost below 12 bytes per character.  This module exposes the
    static Table 2 model; {!Compact_store.space} measures a built
    index. *)

type field = {
  name : string;
  bytes : float;   (** per instance *)
  count : int;     (** instances per node in the naive layout *)
}

val naive_node_fields : Bioseq.Alphabet.t -> field list
(** The rows of Table 2 for a given alphabet: character label
    ([bits/8] bytes), vertebra destination, link dest/LEL, one rib
    dest + PT per non-vertebra symbol, extrib dest/PT/PRT. *)

val naive_node_bytes : Bioseq.Alphabet.t -> float
(** Total of {!naive_node_fields} — 48.25 for DNA, as in Table 2. *)
