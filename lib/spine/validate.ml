type violation = {
  where : string;
  what : string;
}

module Make (S : Store_sig.S) = struct
  let check t =
    let out = ref [] in
    let add where what = out := { where; what } :: !out in
    let n = S.length t in
    let char_at = S.char_at t in
    let seq = S.sequence t in
    let same_suffix ~end1 ~end2 ~len =
      (* the [len] characters ending at nodes end1 and end2 coincide;
         compared word-at-a-time, as a unary string's LELs grow with n *)
      end1 >= len && end2 >= len && end1 <= n && end2 <= n
      && Bioseq.Packed_seq.compare_span seq ~apos:(end1 - len) seq
           ~bpos:(end2 - len) ~len
    in
    (* links *)
    for i = 1 to n do
      let where = Printf.sprintf "link(%d)" i in
      let dest = S.link_dest t i and lel = S.link_lel t i in
      if dest < 0 || dest >= i then
        add where (Printf.sprintf "destination %d not strictly upstream" dest);
      if lel < 0 || lel > dest || lel >= i then
        add where (Printf.sprintf "LEL %d out of range for dest %d" lel dest);
      if lel = 0 && dest <> 0 then
        add where "LEL 0 must point at the root";
      if lel > 0 && not (same_suffix ~end1:i ~end2:dest ~len:lel) then
        add where
          (Printf.sprintf "the %d characters above %d and %d differ" lel i dest)
    done;
    for m = 0 to n do
      (* ribs: every rib the node stores, so a second rib under one
         label is seen although a lookup by label returns the first *)
      let (_ : int list) =
        S.fold_ribs t m ~init:[] ~f:(fun seen c dest pt ->
            let where = Printf.sprintf "rib(%d,%d)" m c in
            if List.exists (Int.equal c) seen then
              add where "a second rib with the same character label";
            if dest <= m then add where "destination not strictly downstream";
            if dest < 1 || dest > n then add where "destination out of range"
            else begin
              if char_at (dest - 1) <> c then
                add where "destination's incoming character differs from CL";
              if m < n && char_at m = c then
                add where "duplicates the vertebra label";
              if pt > m then add where "PT exceeds the source node's depth";
              if pt >= dest then add where "PT not below the destination";
              (* the PT-suffix really extends: chars above m and above
                 dest - 1 must agree on pt characters *)
              if pt > 0 && not (same_suffix ~end1:m ~end2:(dest - 1) ~len:pt)
              then add where "PT-suffix does not match the destination context"
            end;
            c :: seen)
      in
      (* extribs *)
      match S.find_extrib t m with
      | None -> ()
      | Some (dest, pt, prt, anchor) ->
        let where = Printf.sprintf "extrib(%d)" m in
        if dest <= m then add where "destination not strictly downstream";
        if dest < 1 || dest > n then add where "destination out of range"
        else begin
          if prt >= pt then add where "PRT must be below PT";
          if anchor < 1 || anchor > n then add where "anchor out of range"
          else if char_at (dest - 1) <> char_at (anchor - 1) then
            add where
              "represented character differs from the parent rib's";
          if pt >= dest then add where "PT not below the destination"
        end
    done;
    List.rev !out
end
