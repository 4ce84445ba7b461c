type violation = {
  where : string;
  what : string;
}

let check idx =
  let out = ref [] in
  let add where what = out := { where; what } :: !out in
  let n = Fast_store.length idx in
  let store = Index.store idx in
  let char_at = Fast_store.char_at store in
  let same_suffix ~end1 ~end2 ~len =
    (* the [len] characters ending at nodes end1 and end2 coincide *)
    let rec go k =
      k >= len || (char_at (end1 - len + k) = char_at (end2 - len + k) && go (k + 1))
    in
    end1 >= len && end2 >= len && go 0
  in
  (* links *)
  for i = 1 to n do
    let where = Printf.sprintf "link(%d)" i in
    let dest, lel = Index.link idx i in
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
  (* ribs *)
  let sigma = Bioseq.Alphabet.size (Fast_store.alphabet idx) in
  for m = 0 to n do
    for c = 0 to sigma do
      match Index.rib idx m c with
      | None -> ()
      | Some (dest, pt) ->
        let where = Printf.sprintf "rib(%d,%d)" m c in
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
          if pt > 0 && not (same_suffix ~end1:m ~end2:(dest - 1) ~len:pt) then
            add where "PT-suffix does not match the destination context"
        end
    done;
    (* extribs *)
    match Fast_store.find_extrib store m with
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

let check_exn idx =
  match check idx with
  | [] -> ()
  | violations ->
    let head =
      violations
      |> List.filteri (fun i _ -> i < 5)
      |> List.map (fun v -> Printf.sprintf "%s: %s" v.where v.what)
      |> String.concat "; "
    in
    failwith
      (Printf.sprintf "Spine.Validate: %d violation(s): %s"
         (List.length violations) head)
