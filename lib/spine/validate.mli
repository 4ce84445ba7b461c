(** Structural invariant checker for SPINE stores.

    Verifies, without any external oracle, every invariant the paper's
    structure guarantees by construction:

    - node count = string length + 1; every non-root node has a link;
    - links point strictly upstream; LEL values are bounded by the
      source node's depth and by [LEL(dest) < LEL] chains;
    - ribs point strictly downstream of their source, never duplicate a
      vertebra label, and at most one rib per (node, character);
    - PT of a rib is below its destination (a suffix cannot be longer
      than the prefix it ends); extrib PTs exceed their parent rib's PT
      and PRT equals the parent rib's PT; extrib chains are acyclic;
    - every rib/extrib destination's incoming path is consistent: the
      characters spelled by the edge match the backbone at the
      destination ([char at dest - 1] equals the edge's label).

    Written once over {!Store_sig.S}, so the in-memory {!Compact} store
    and the paged stores of {!Persistent} and {!Disk} are checked by
    the same code.  O(n * alphabet) field reads plus word-at-a-time
    suffix compares — cheap enough to run after a bulk load, a load
    from an index file or a reopen. *)

type violation = {
  where : string;   (** e.g. "link(42)", "rib(7,'c')" *)
  what : string;    (** human-readable description *)
}

module Make (S : Store_sig.S) : sig
  val check : S.t -> violation list
  (** Empty when the structure is sound. *)

end
