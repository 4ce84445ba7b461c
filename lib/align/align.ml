type anchor = {
  ref_pos : int;
  query_pos : int;
  len : int;
}

type engine = [ `Spine | `Suffix_tree ]

let anchors_of_matches matches =
  (* one anchor per (match, reference occurrence) pair *)
  List.concat_map
    (fun (query_end, len, data_ends) ->
      List.map
        (fun data_end ->
          { ref_pos = data_end - len + 1;
            query_pos = query_end - len + 1;
            len })
        data_ends)
    matches

let maximal_match_anchors ~engine ~threshold reference query =
  let matches =
    match engine with
    | `Spine ->
      let engine = Spine.Compact.engine (Spine.Compact.of_seq reference) in
      let ms, _ = Spine.Engine.maximal_matches engine ~threshold query in
      List.map
        (fun { Spine.Engine.query_end; length; data_ends } ->
          (query_end, length, data_ends))
        ms
    | `Suffix_tree ->
      let st = Suffix_tree.build reference in
      let ms, _ = Suffix_tree.maximal_matches st ~threshold query in
      List.map
        (fun { Suffix_tree.query_end; length; data_ends } ->
          (query_end, length, data_ends))
        ms
  in
  anchors_of_matches matches

let unique_anchors anchors =
  let count_by f =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun a ->
        let k = f a in
        Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
      anchors;
    tbl
  in
  let by_ref = count_by (fun a -> a.ref_pos) in
  let by_query = count_by (fun a -> a.query_pos) in
  List.filter
    (fun a ->
      Hashtbl.find by_ref a.ref_pos = 1 && Hashtbl.find by_query a.query_pos = 1)
    anchors

(* Heaviest chain of anchors strictly increasing in both coordinates.
   Sort by query position, then compute for each anchor the best chain
   weight ending at it. O(k^2) in the worst case but k (unique anchors)
   is small; a segment tree would be overkill here. *)
let chain anchors =
  let arr =
    Array.of_list
      (List.sort
         (fun a b ->
           match compare a.query_pos b.query_pos with
           | 0 -> compare a.ref_pos b.ref_pos
           | c -> c)
         anchors)
  in
  let k = Array.length arr in
  if k = 0 then []
  else begin
    let best = Array.make k 0 in
    let prev = Array.make k (-1) in
    for i = 0 to k - 1 do
      best.(i) <- arr.(i).len;
      for j = 0 to i - 1 do
        let a = arr.(j) and b = arr.(i) in
        let compatible =
          a.query_pos + a.len <= b.query_pos && a.ref_pos + a.len <= b.ref_pos
        in
        if compatible && best.(j) + b.len > best.(i) then begin
          best.(i) <- best.(j) + b.len;
          prev.(i) <- j
        end
      done
    done;
    let top = ref 0 in
    for i = 1 to k - 1 do
      if best.(i) > best.(!top) then top := i
    done;
    let rec collect i acc =
      if i < 0 then acc else collect prev.(i) (arr.(i) :: acc)
    in
    collect !top []
  end

type summary = {
  anchors : int;
  unique : int;
  chained : int;
  chained_bases : int;
  coverage : float;
}

let align ?(engine = `Spine) ~threshold reference query =
  let anchors = maximal_match_anchors ~engine ~threshold reference query in
  let unique = unique_anchors anchors in
  let chained = chain unique in
  let chained_bases = List.fold_left (fun acc a -> acc + a.len) 0 chained in
  let qlen = Bioseq.Packed_seq.length query in
  ( chained,
    { anchors = List.length anchors;
      unique = List.length unique;
      chained = List.length chained;
      chained_bases;
      coverage =
        (if qlen = 0 then 0.0 else float_of_int chained_bases /. float_of_int qlen)
    } )

module Approx = Approx
