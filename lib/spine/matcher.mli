(** Streaming matching over a SPINE index (Section 4 of the paper).

    Computes matching statistics of a query against the indexed string,
    maintaining the invariant that the current state [(v, len)] is the
    {e termination node} of the current match (the end of its first
    occurrence in the data string) together with its length.  On a
    failed extension the matcher first tries shorter suffixes that
    terminate at the same node (bounded by the rib's pathlength
    thresholds), then follows the backward link — one check per {e set}
    of suffixes, which is SPINE's advantage over the suffix tree's
    one-suffix-link-per-suffix walk (Section 4.1, Table 6). *)

(** {2 Canonical result types}

    Store-independent, defined once here: every store instantiation,
    every front-end and {!Engine} share these records rather than
    re-equating a per-functor copy. *)

type stats = {
  nodes_checked : int;
  (** nodes examined during extensions, threshold retries and link
      hops — the unit of the paper's Table 6 *)
  suffixes_checked : int;
  (** backward-link traversals: each one dispatches a whole set of
      candidate suffixes at once *)
}

type mmatch = {
  query_end : int;
  length : int;
  data_ends : int list;  (** 0-based end positions, ascending *)
}

(** The matcher algorithm surface over one store type; [Make] produces
    it for any {!Store_sig.S} implementation. *)
module type S = sig
  type store

  type state
  (** The streaming accumulator: current (node, length) position plus
      work counters.  Abstract — one [state] belongs to one operation
      on one domain; the store underneath stays read-only, so sharing
      the {e store} across domains is safe while each domain makes its
      own states ({!make}/{!resume}). *)

  val resume : store -> node:int -> len:int -> state
  (** A state positioned mid-match (work counters zeroed): how
      {!Cursor.S.longest_extension} borrows the streaming step for its
      own (node, len) window. *)

  val consume : state -> int -> unit
  (** Consume one query character, updating the state to the longest
      suffix of (current match + c) present in the data string. *)

  val node_of : state -> int
  (** Termination node of the current match. *)

  val len_of : state -> int
  (** Current match length. *)

  val matching_statistics :
    store -> Bioseq.Packed_seq.t -> int array * stats
  (** [ms.(i)] is the length of the longest substring of the data
      string ending at query position [i]. *)

  val maximal_matches :
    ?immediate:bool ->
    store -> threshold:int -> Bioseq.Packed_seq.t -> mmatch list * stats
  (** The paper's complex matching operation: stream the query through
      the index recording a match at every right-maximal position of
      length at least [threshold], then resolve every occurrence of all
      reported matches in ONE deferred sequential backbone scan
      (Section 4's batched target-node-buffer strategy).
      [~immediate:true] is the ablation mode: a separate scan per
      match. *)
end

module Make (St : Store_sig.S) : S with type store = St.t
