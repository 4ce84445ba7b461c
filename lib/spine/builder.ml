(** Online SPINE construction (Section 3 of the paper).

    One {!Make.append} call per data character.  The link chain of the
    new node's parent is traversed upstream; at each visited node a rib
    is created unless a forward edge for the new character already
    exists, in which case the traversal stops and the new node's link is
    installed according to the paper's four cases:

    - CASE 1 (vertebra found): link to the vertebra's destination,
      LEL = last traversed LEL + 1;
    - CASE 2 (rib found, threshold passes): link to the rib destination,
      LEL = last traversed LEL + 1;
    - CASE 3 (no edge): create a rib to the tail with PT = last
      traversed LEL; on reaching the root, link the tail to the root
      with LEL 0;
    - CASE 4 (rib found, threshold fails): walk the rib's extrib chain;
      link to the first sibling extrib with sufficient PT, or append a
      fresh extrib at the end of the chain and link to the destination
      of the last same-PRT edge traversed.

    The hand-validated construction trace for the paper's example string
    [aaccacaaca] (Figure 3) is enforced by the test suite. *)

(* Construction probes (see {!Probe}): CASE frequencies (Section 3)
   and edge-creation counts, the paper's Table 2/space accounting
   inputs.  CASE 3 is exactly one rib creation, and every appended
   character gets exactly one link.  The upstream link-chain length
   per appended character is a histogram. *)
let h_upstream = Telemetry.histogram "build.upstream_hops"

module Make (S : Store_sig.S) = struct
  (* CASE 4. [lel] is the LEL of the last traversed link: the length of
     the longest suffix terminating at the node whose rib [rib_dest]/
     [rib_pt] failed the threshold test (rib_pt < lel). *)
  let handle_extrib t tail ~rib_dest ~rib_pt ~lel =
    let last_same_prt_dest = ref rib_dest in
    let last_same_prt_pt = ref rib_pt in
    let cur = ref rib_dest in
    let finished = ref false in
    while not !finished do
      match S.find_extrib t !cur with
      | None ->
        (* chain exhausted: extend it to the tail and record the new
           LET-suffix, which is the extension of the longest previously
           extended suffix (PT of the last same-PRT edge) *)
        S.add_extrib t !cur ~dest:tail ~pt:lel ~prt:rib_pt ~anchor:rib_dest;
        Probe.add Probe.build_extrib 1;
        if Trace.on () then
          Trace.instant "build.extrib"
            [ Trace.Int ("node", !cur); Trace.Int ("dest", tail);
              Trace.Int ("pt", lel); Trace.Int ("prt", rib_pt) ];
        S.set_link t tail ~dest:!last_same_prt_dest ~lel:(!last_same_prt_pt + 1);
        finished := true
      | Some (edest, ept, eprt, eanchor) ->
        let sibling = eprt = rib_pt && eanchor = rib_dest in
        if sibling && ept >= lel then begin
          (* a sibling extrib already extends this suffix length *)
          S.set_link t tail ~dest:edest ~lel:(lel + 1);
          finished := true
        end
        else begin
          if sibling then begin
            last_same_prt_dest := edest;
            last_same_prt_pt := ept
          end;
          cur := edest
        end
    done

  let append t c =
    S.append_char t c;
    Probe.add Probe.build_link 1;
    let tail = S.length t in
    if tail = 1 then S.set_link t 1 ~dest:0 ~lel:0
    else begin
      let parent = tail - 1 in
      let m = ref (S.link_dest t parent) in
      let lel = ref (S.link_lel t parent) in
      let finished = ref false in
      let hops = ref 0 in
      while not !finished do
        let mv = !m in
        hops := !hops + 1;
        if S.char_at t mv = c then begin
          (* CASE 1: vertebra out of [mv] carries [c] *)
          Probe.step Probe.build_case1 ~node:mv ~dest:tail;
          S.set_link t tail ~dest:(mv + 1) ~lel:(!lel + 1);
          finished := true
        end
        else
          match S.find_rib t mv c with
          | Some (dest, pt) ->
            if pt >= !lel then begin
              (* CASE 2 *)
              Probe.step Probe.build_case2 ~node:mv ~dest:tail;
              S.set_link t tail ~dest ~lel:(!lel + 1)
            end
            else begin
              (* CASE 4 *)
              Probe.step Probe.build_case4 ~node:mv ~dest:tail;
              handle_extrib t tail ~rib_dest:dest ~rib_pt:pt ~lel:!lel
            end;
            finished := true
          | None ->
            (* CASE 3 *)
            Probe.step Probe.build_case3 ~node:mv ~dest:tail;
            if Trace.on () then
              Trace.instant "build.rib"
                [ Trace.Int ("node", mv); Trace.Int ("dest", tail);
                  Trace.Int ("pt", !lel) ];
            S.add_rib t mv ~code:c ~dest:tail ~pt:!lel;
            if mv = 0 then begin
              S.set_link t tail ~dest:0 ~lel:0;
              finished := true
            end
            else begin
              lel := S.link_lel t mv;
              m := S.link_dest t mv
            end
      done;
      Telemetry.observe h_upstream !hops
    end

  let append_seq t seq =
    Bioseq.Packed_seq.iteri seq ~f:(fun _ code -> append t code)

  let append_string t s =
    String.iter
      (fun ch -> append t (Bioseq.Alphabet.encode (S.alphabet t) ch))
      s
end
