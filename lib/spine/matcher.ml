(** Streaming matching over a SPINE index (Section 4 of the paper).

    Computes matching statistics of a query against the indexed string,
    maintaining the invariant that the current state [(node, len)] is
    the {e termination node} of the current match (the end of its first
    occurrence in the data string) together with its length.  On a
    failed extension the matcher first tries shorter suffixes that
    terminate at the same node (bounded by the rib's pathlength
    thresholds), then follows the backward link — one check per {e set}
    of suffixes, which is SPINE's advantage over the suffix tree's
    one-suffix-link-per-suffix walk (Section 4.1, Table 6). *)

(* taken before [Search] is shadowed by the applied functor *)
let count_run = Search.count_run
let shifted_list = Search.shifted_list

(* The result types are store-independent, so they are defined once
   here — every front-end and the engine share this single canonical
   definition instead of re-equating a per-functor copy. *)

type stats = {
  nodes_checked : int;
  suffixes_checked : int;
}

type mmatch = {
  query_end : int;
  length : int;
  data_ends : int list;
}

module type S = sig
  type store

  type state

  val resume : store -> node:int -> len:int -> state
  val consume : state -> int -> unit
  val node_of : state -> int
  val len_of : state -> int

  val matching_statistics :
    store -> Bioseq.Packed_seq.t -> int array * stats

  val maximal_matches :
    ?immediate:bool ->
    store -> threshold:int -> Bioseq.Packed_seq.t -> mmatch list * stats
end

module Make (S : Store_sig.S) = struct
  module Search = Search.Make (S)

  type store = S.t

  type state = {
    t : S.t;
    mutable v : int;      (* termination node of the current match *)
    mutable len : int;    (* current match length *)
    mutable nodes : int;
    mutable suffixes : int;
  }

  let make t = { t; v = 0; len = 0; nodes = 0; suffixes = 0 }

  (* A state positioned mid-match: Cursor resumes the streaming step
     from its own (node, len) window without seeing the fields. *)
  let resume t ~node ~len = { t; v = node; len; nodes = 0; suffixes = 0 }

  let node_of st = st.v
  let len_of st = st.len

  (* Largest pathlength the rib [pt] + its extrib chain supports, i.e.
     the longest suffix ending at this node that the edge can extend. *)
  let max_threshold st ~rib_dest ~rib_pt =
    let rec chase cur best =
      match S.find_extrib st.t cur with
      | None -> best
      | Some (edest, ept, eprt, eanchor) ->
        st.nodes <- st.nodes + 1;
        Probe.step Probe.extrib ~node:cur ~dest:edest;
        chase edest
          (if eprt = rib_pt && eanchor = rib_dest then Int.max best ept
           else best)
    in
    chase rib_dest rib_pt

  (* Destination when traversing the rib with pathlength [k]. *)
  let dest_for st ~rib_dest ~rib_pt k =
    if k <= rib_pt then rib_dest
    else begin
      let rec chase cur =
        match S.find_extrib st.t cur with
        | None -> assert false (* caller checked k <= max_threshold *)
        | Some (edest, ept, eprt, eanchor) ->
          st.nodes <- st.nodes + 1;
          Probe.step Probe.extrib ~node:cur ~dest:edest;
          if eprt = rib_pt && eanchor = rib_dest && ept >= k then edest
          else chase edest
      in
      chase rib_dest
    end

  (* Consume one query character, updating the state to the longest
     suffix of (current match + c) present in the data string. *)
  let consume st c =
    let t = st.t in
    let rec attempt () =
      st.nodes <- st.nodes + 1;
      let nxt = Search.step t st.v st.len c in
      if nxt >= 0 then begin
        st.v <- nxt;
        st.len <- st.len + 1
      end
      else if st.v = 0 then ()  (* len = 0 at the root: no match *)
      else begin
        (* try shorter suffixes that still terminate at [v]: they are
           the lengths in (link_lel v, len), all served by the same rib
           up to its maximum threshold *)
        let lel = S.link_lel t st.v in
        let served =
          match S.find_rib t st.v c with
          | None -> None
          | Some (dest, pt) ->
            let maxpt = max_threshold st ~rib_dest:dest ~rib_pt:pt in
            let k = Int.min (st.len - 1) maxpt in
            if k > lel then Some (dest_for st ~rib_dest:dest ~rib_pt:pt k, k)
            else None
        in
        match served with
        | Some (dest, k) ->
          st.v <- dest;
          st.len <- k + 1
        | None ->
          (* one backward link hop dispatches every remaining suffix
             terminating at [v] *)
          st.suffixes <- st.suffixes + 1;
          let dest = S.link_dest t st.v in
          Probe.step Probe.link ~node:st.v ~dest;
          st.len <- lel;
          st.v <- dest;
          attempt ()
      end
    in
    attempt ()

  let stats_of st = { nodes_checked = st.nodes; suffixes_checked = st.suffixes }

  (* Bulk streaming extension: the vertebra run out of state node [v]
     spells text[v..], and vertebra steps carry no threshold check, so
     one packed mismatch of the query span against the text row extends
     the match word-at-a-time.  Counter parity with the scalar loop:
     each matched character is one vertebra step and one node check.
     Returns the number of characters consumed; the caller handles the
     boundary character (rib/extrib/link logic) through {!consume}. *)
  let bulk_extend st q i =
    let t = st.t in
    let limit =
      Int.min (Bioseq.Packed_seq.length q - i) (S.length t - st.v)
    in
    if limit <= 0 then 0
    else begin
      let run, words, scalars =
        Bioseq.Packed_seq.mismatch (S.sequence t) ~apos:st.v q ~bpos:i
          ~len:limit
      in
      count_run ~node:st.v ~run ~words ~scalars;
      st.nodes <- st.nodes + run;
      st.v <- st.v + run;
      st.len <- st.len + run;
      run
    end

  let matching_statistics t q =
    let m = Bioseq.Packed_seq.length q in
    let ms = Array.make (Int.max m 1) 0 in
    let st = make t in
    let i = ref 0 in
    while !i < m do
      let run = bulk_extend st q !i in
      for k = 1 to run do
        ms.(!i + k - 1) <- st.len - run + k
      done;
      i := !i + run;
      if !i < m then begin
        consume st (Bioseq.Packed_seq.get q !i);
        ms.(!i) <- st.len;
        incr i
      end
    done;
    (ms, stats_of st)

  (* The paper's complex matching operation: stream the query through
     the index recording (first-occurrence node, length) at every
     right-maximal position above the threshold, then resolve every
     occurrence of all reported matches in ONE deferred sequential
     backbone scan (Section 4's batched target-node-buffer strategy). *)
  let maximal_matches ?(immediate = false) t ~threshold q =
    let m = Bioseq.Packed_seq.length q in
    let ms = Array.make (Int.max m 1) 0 in
    let end_node = Array.make (Int.max m 1) (-1) in
    let st = make t in
    let i = ref 0 in
    while !i < m do
      let run = bulk_extend st q !i in
      for k = 1 to run do
        let pos = !i + k - 1 in
        ms.(pos) <- st.len - run + k;
        (* within a vertebra run the state node advances in lockstep
           with the match length, so the intermediate end nodes are
           recoverable without re-walking *)
        end_node.(pos) <- st.v - run + k
      done;
      i := !i + run;
      if !i < m then begin
        consume st (Bioseq.Packed_seq.get q !i);
        ms.(!i) <- st.len;
        end_node.(!i) <- (if st.len = 0 then -1 else st.v);
        incr i
      end
    done;
    let reported = ref [] in
    for i = m - 1 downto 0 do
      let right_maximal = i = m - 1 || ms.(i + 1) <= ms.(i) in
      if right_maximal && ms.(i) >= threshold && threshold > 0 then
        reported := (i, ms.(i), end_node.(i)) :: !reported
    done;
    let reported = Array.of_list !reported in
    (* a node id is the end of a prefix, so end node [e] corresponds to
       the 0-based data position [e - 1]: [~shift:1] *)
    let matches =
      if immediate then
        (* ablation mode: a separate backbone scan per match *)
        Array.map
          (fun (i, len, first) ->
            let buf = Search.occurrences_batch t [| (first, len) |] in
            { query_end = i; length = len;
              data_ends = shifted_list buf.(0) ~shift:1 })
          reported
      else begin
        let firsts = Array.map (fun (_, len, first) -> (first, len)) reported in
        let buffers = Search.occurrences_batch t firsts in
        Array.mapi
          (fun j (i, len, _) ->
            { query_end = i; length = len;
              data_ends = shifted_list buffers.(j) ~shift:1 })
          reported
      end
    in
    (Array.to_list matches, stats_of st)
end
