(** Valid-path search over a SPINE index (Section 4 of the paper).

    A path is valid when it starts at the root and every rib/extrib it
    takes satisfies the pathlength-threshold constraint; valid paths
    spell exactly the substrings of the data string, and the node a
    valid path ends on is the end of the substring's {e first}
    occurrence.  Remaining occurrences are recovered with the paper's
    target-node-buffer scan: one sequential pass over the backbone,
    admitting every node whose link has sufficient LEL and points into
    the buffer.  The whole admission test runs inside the store
    ({!Store_sig.S.scan_links}): its Link Table walk reads each node's
    LEL and link destination together and tests the destination
    against the buffer's bitmap, handing over only the candidates. *)

(* Record one bulk vertebra run.  A run of [run] matched characters is
   exactly [run] vertebra steps (vertebra edges carry no threshold
   check, so word comparison is step-for-step equivalent to the scalar
   walk); the word/scalar split is what the packed scan adds on top.
   Shared with the matcher's streaming extension. *)
let count_run ~node ~run ~words ~scalars =
  if run > 0 then begin
    Probe.add Probe.vertebra run;
    if Trace.on () then
      Trace.instant "step.vertebra_run"
        [ Trace.Int ("node", node); Trace.Int ("len", run) ]
  end;
  if words > 0 then Probe.add Probe.word_steps words;
  if scalars > 0 then Probe.add Probe.scalar_steps scalars

module type S = sig
  type store

  val step : store -> int -> int -> int -> int

  val extend :
    store -> node:int -> pl:int -> Bioseq.Packed_seq.Pattern.t -> pos:int ->
    int * int
  (** Descend from [node] (pathlength [pl]) consuming pattern codes
      from [pos]: vertebra runs extend word-at-a-time against the
      packed text row, with one scalar {!step} at each non-vertebra
      boundary (rib/extrib transitions).  Returns the landing node and
      the number of codes consumed. *)

  val find_first_pattern :
    store -> Bioseq.Packed_seq.Pattern.t -> int option

  val contains_pattern : store -> Bioseq.Packed_seq.Pattern.t -> bool
  val occurrences_pattern : store -> Bioseq.Packed_seq.Pattern.t -> int list
  val occurrences_batch : store -> (int * int) array -> Xutil.Int_vec.t array

  val occurrences_many :
    store -> Bioseq.Packed_seq.Pattern.t list -> int list array
end

(* Per-domain scratch bitmap over node ids ({!Xutil.Node_bits}): the
   store's scan tests link destinations against it, in front of the
   scan's authoritative target table.  A set bit may cost one
   hashtable probe, a clear bit proves the node is no target.  It
   grows on demand and every scan clears the bits it set, by walking
   its result buffers, so no scan allocates O(n) bytes. *)
let marks_key = Domain.DLS.new_key (fun () -> ref Bytes.empty)

let scratch_marks nodes =
  let r = Domain.DLS.get marks_key in
  let need = (nodes + 7) lsr 3 in
  if Bytes.length !r < need then
    r := Bytes.make (Int.max need (2 * Bytes.length !r)) '\000';
  !r

(* A result buffer's end nodes, each shifted by [-shift], as one
   ascending list built from the buffer's tail. *)
let shifted_list buffer ~shift =
  let acc = ref [] in
  for i = Xutil.Int_vec.length buffer - 1 downto 0 do
    acc := (Xutil.Int_vec.get buffer i - shift) :: !acc
  done;
  !acc

let unmark m buffers =
  Array.iter
    (Xutil.Int_vec.iter ~f:(fun node -> Bytes.set m (node lsr 3) '\000'))
    buffers

module Make (S : Store_sig.S) = struct
  type store = S.t

  (* One forward step from [node] with pathlength [pl] on character [c].
     Returns the destination node, or -1 when no valid edge exists. *)
  let step t node pl c =
    if node < S.length t && S.char_at t node = c then begin
      Probe.step Probe.vertebra ~node ~dest:(node + 1);
      node + 1
    end
    else
      match S.find_rib t node c with
      | None -> -1
      | Some (dest, pt) ->
        if pl <= pt then begin
          Probe.step Probe.rib ~node ~dest;
          dest
        end
        else begin
          (* chase the extrib chain for a child (same PRT) with
             sufficient threshold *)
          let rec chase cur =
            match S.find_extrib t cur with
            | None -> -1
            | Some (edest, ept, eprt, eanchor) ->
              Probe.step Probe.extrib ~node:cur ~dest:edest;
              if eprt = pt && eanchor = dest && ept >= pl then edest
              else chase edest
          in
          chase dest
        end

  (* Bulk valid-path descent: node [node] is the end of a backbone
     prefix, so its outgoing vertebra run spells text[node..] — one
     packed mismatch against the pattern span extends the path by whole
     words.  Only the boundary character (a failed vertebra) pays a
     scalar [step] for the rib/extrib logic. *)
  let extend t ~node ~pl (p : Bioseq.Packed_seq.Pattern.t) ~pos =
    let seq = S.sequence t in
    let n = S.length t in
    let m = Bioseq.Packed_seq.Pattern.length p in
    let rec go node pl pos =
      if pos >= m then (node, pos)
      else begin
        let limit = Int.min (m - pos) (n - node) in
        let run, words, scalars =
          if limit > 0 then
            Bioseq.Packed_seq.mismatch_pattern seq ~pos:node p ~ppos:pos
              ~len:limit
          else (0, 0, 0)
        in
        count_run ~node ~run ~words ~scalars;
        let node = node + run and pl = pl + run and pos = pos + run in
        if pos >= m then (node, pos)
        else
          let nxt = step t node pl (Bioseq.Packed_seq.Pattern.get p pos) in
          if nxt < 0 then (node, pos) else go nxt (pl + 1) (pos + 1)
      end
    in
    let node', stop = go node pl pos in
    (node', stop - pos)

  (* End node of the first occurrence of the pattern, or None. *)
  let find_first_pattern t p =
    let m = Bioseq.Packed_seq.Pattern.length p in
    let node, consumed = extend t ~node:0 ~pl:0 p ~pos:0 in
    Probe.add Probe.descent consumed;
    if consumed >= m then Some node else None

  let contains_pattern t p = Option.is_some (find_first_pattern t p)

  (* The deferred, batched occurrence scan: given the first-occurrence
     end node and length of several patterns, find every occurrence of
     all of them in one sequential backbone pass.  The store hands over
     only nodes whose LEL reaches the shortest pattern and whose link
     lands on a node set in [marks]; [targets] maps a buffered node to
     the patterns whose buffer it belongs to. *)
  let occurrences_batch t firsts =
    let k = Array.length firsts in
    let buffers = Array.init k (fun _ -> Xutil.Int_vec.create ()) in
    if k > 0 then begin
      let targets : int list Xutil.Int_tbl.t = Xutil.Int_tbl.create 64 in
      let marks = scratch_marks (S.length t + 1) in
      let add_target node j =
        Xutil.Node_bits.set marks node;
        let prev =
          Option.value ~default:[] (Xutil.Int_tbl.find_opt targets node)
        in
        Xutil.Int_tbl.replace targets node (j :: prev)
      in
      let min_first = ref max_int and min_len = ref max_int in
      Probe.add Probe.found k;
      Array.iteri
        (fun j (first, len) ->
          Xutil.Int_vec.push buffers.(j) first;
          add_target first j;
          if first < !min_first then min_first := first;
          if len < !min_len then min_len := len)
        firsts;
      let tr = Trace.on () in
      if tr then
        Trace.begin_span "search.scan"
          [ Trace.Int ("patterns", k); Trace.Int ("from", !min_first) ];
      let admit node lel d =
        match Xutil.Int_tbl.find_opt targets d with
        | None -> ()
        | Some ids ->
          List.iter
            (fun j ->
              let _, len = firsts.(j) in
              if lel >= len then begin
                Xutil.Int_vec.push buffers.(j) node;
                Probe.add Probe.found 1;
                add_target node j
              end)
            ids
      in
      (match
         S.scan_links t ~from:(!min_first + 1) ~min_lel:!min_len ~marks admit
       with
       | () -> unmark marks buffers
       | exception e ->
         unmark marks buffers;
         raise e);
      (* one batched bump covers the whole scan: it covered exactly
         [S.length t - min_first] nodes *)
      let covered = Int.max 0 (S.length t - !min_first) in
      Probe.add Probe.scan_nodes covered;
      if tr then Trace.end_span ()
    end;
    buffers

  (* The start positions of [p], ascending: the paper's single-pattern
     search followed by the downstream link scan, each end node
     shifted back by the pattern length. *)
  let occurrences_pattern t p =
    match find_first_pattern t p with
    | None -> []
    | Some first ->
      let len = Bioseq.Packed_seq.Pattern.length p in
      shifted_list (occurrences_batch t [| (first, len) |]).(0) ~shift:len

  (* Dictionary search: find the first occurrence of each pattern
     individually (cheap valid-path walks), then resolve every
     occurrence of all present patterns with ONE shared deferred
     backbone scan. *)
  let occurrences_many t patterns =
    let firsts =
      List.map
        (fun p ->
          match find_first_pattern t p with
          | Some e -> (e, Bioseq.Packed_seq.Pattern.length p)
          | None -> (-1, 0))
        patterns
    in
    let present =
      List.filter (fun (e, _) -> e >= 0) firsts |> Array.of_list
    in
    let buffers = occurrences_batch t present in
    let results = Array.make (List.length patterns) [] in
    let next = ref 0 in
    List.iteri
      (fun i (e, len) ->
        if e >= 0 then begin
          results.(i) <- shifted_list buffers.(!next) ~shift:len;
          incr next
        end)
      firsts;
    results
end
