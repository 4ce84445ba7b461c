(** Valid-path search over a SPINE index (Section 4 of the paper).

    A path is valid when it starts at the root and every rib/extrib it
    takes satisfies the pathlength-threshold constraint; valid paths
    spell exactly the substrings of the data string, and the node a
    valid path ends on is the end of the substring's {e first}
    occurrence.  Remaining occurrences are recovered with the paper's
    target-node-buffer scan: one sequential pass over the backbone,
    admitting every node whose link has sufficient LEL and points into
    the buffer.  Both tests run inside the store
    ({!Store_sig.S.scan_links}): its Link Table walk reads each node's
    LEL and link destination together, tests the destination against
    the buffer's bitmap, and hands over only the candidates. *)

val count_run : node:int -> run:int -> words:int -> scalars:int -> unit
(** Count one word-packed vertebra run from [node]: [run] vertebra
    steps, compared in [words] whole-word and [scalars] per-character
    steps, plus a [step.vertebra_run] trace instant.  Shared with the
    matcher's streaming extension. *)

val shifted_list : Xutil.Int_vec.t -> shift:int -> int list
(** A result buffer's end nodes, each shifted by [-shift], as one
    ascending list.  Shared with the matcher's maximal matches. *)

(** The search algorithm surface over one store type; [Make] produces
    it for any {!Store_sig.S} implementation.  Naming the signature
    lets {!Engine} pack an instantiated search module together with its
    store as a first-class backend. *)
module type S = sig
  type store

  val step : store -> int -> int -> int -> int
  (** [step t node pl c]: one forward step from [node] with pathlength
      [pl] on character [c].  Returns the destination node, or [-1]
      when no valid edge exists. *)

  val extend :
    store -> node:int -> pl:int -> Bioseq.Packed_seq.Pattern.t -> pos:int ->
    int * int
  (** [extend t ~node ~pl p ~pos] descends from [node] (pathlength
      [pl]) consuming pattern codes from [pos]: vertebra runs extend
      word-at-a-time against the packed text row, with one scalar
      {!step} at each non-vertebra boundary (rib/extrib transitions).
      Returns the landing node and the number of codes consumed. *)

  val find_first_pattern : store -> Bioseq.Packed_seq.Pattern.t -> int option
  (** End node of the first occurrence of the pre-packed pattern, or
      [None]. *)

  val contains_pattern : store -> Bioseq.Packed_seq.Pattern.t -> bool

  val occurrences_pattern : store -> Bioseq.Packed_seq.Pattern.t -> int list
  (** 0-based start positions, ascending. *)

  val occurrences_batch : store -> (int * int) array -> Xutil.Int_vec.t array
  (** [occurrences_batch t firsts] resolves every occurrence of several
      patterns — given as [(first-occurrence end node, length)] pairs —
      in one deferred sequential backbone scan, returning one ascending
      end-node buffer per pattern. *)

  val occurrences_many :
    store -> Bioseq.Packed_seq.Pattern.t list -> int list array
  (** Dictionary search: all occurrences of every pattern, resolved
      with ONE shared backbone scan (the paper's deferred batching,
      Section 4).  Result [i] holds the ascending start positions of
      pattern [i] (empty when absent). *)
end

module Make (St : Store_sig.S) : S with type store = St.t
