type hit = {
  pos : int;
  errors : int;
  match_len : int;
}

(* Split the pattern into [parts] contiguous seeds of near-equal
   length; returns (offset, length) pairs. *)
let seeds pattern parts =
  let m = Array.length pattern in
  let base = m / parts and extra = m mod parts in
  let out = ref [] in
  let off = ref 0 in
  for j = 0 to parts - 1 do
    let len = base + (if j < extra then 1 else 0) in
    out := (!off, len) :: !out;
    off := !off + len
  done;
  List.rev !out

(* Exact occurrences of the pattern slice [off, off+len) as data start
   positions, via the index. *)
let seed_hits engine pattern (off, len) =
  let seed = Array.sub pattern off len in
  Spine.Engine.occurrences_pattern engine (Spine.Engine.pattern engine seed)

let validate pattern k =
  if k < 0 then invalid_arg "Approx: negative error budget";
  if Array.length pattern = 0 then invalid_arg "Approx: empty pattern"

(* candidate start positions from the pigeonhole seeds, deduplicated
   and sorted; [slack] widens the window for indels *)
let candidates idx pattern ~k ~slack =
  let m = Array.length pattern in
  let n = Spine.Compact_store.length idx in
  let engine = Spine.Compact.engine idx in
  let set = Hashtbl.create 64 in
  List.iter
    (fun ((off, len) as seed) ->
      if len > 0 then
        List.iter
          (fun o ->
            let base = o - off in
            for s = base - slack to base + slack do
              if s >= 0 && s <= n - (m - k) then Hashtbl.replace set s ()
            done)
          (seed_hits engine pattern seed))
    (seeds pattern (k + 1));
  let out = Hashtbl.fold (fun s () acc -> s :: acc) set [] in
  List.sort compare out

let hamming_hits idx ~pattern ~k =
  validate pattern k;
  let m = Array.length pattern in
  let n = Spine.Compact_store.length idx in
  let seq = Spine.Compact_store.sequence idx in
  let verify s =
    if s < 0 || s + m > n then None
    else begin
      let errors = ref 0 in
      (try
         for j = 0 to m - 1 do
           if Bioseq.Packed_seq.get seq (s + j) <> pattern.(j) then begin
             incr errors;
             if !errors > k then raise Exit
           end
         done;
         Some { pos = s; errors = !errors; match_len = m }
       with Exit -> None)
    end
  in
  let starts =
    if k >= m then List.init (max 0 (n - m + 1)) (fun s -> s)
    else candidates idx pattern ~k ~slack:0
  in
  List.filter_map verify starts

let hamming idx ~pattern ~k = hamming_hits idx ~pattern ~k

(* Banded edit-distance verification: the best (distance, data length)
   over alignments of the whole pattern against data starting at [s]. *)
let banded_edit seq n pattern s k =
  let m = Array.length pattern in
  let inf = max_int / 2 in
  (* dp over pattern prefix i (rows), data length j in the band
     [i - k, i + k]; dp.(j - (i - k)) after row i *)
  let width = (2 * k) + 1 in
  let prev = Array.make width inf in
  let cur = Array.make width inf in
  (* row 0: aligning empty pattern prefix against j data chars costs j *)
  for b = 0 to width - 1 do
    let j = b - k in
    prev.(b) <- (if j >= 0 && s + j <= n then j else inf)
  done;
  for i = 1 to m do
    for b = 0 to width - 1 do
      let j = i - k + b in
      if j < 0 || s + j > n then cur.(b) <- inf
      else begin
        let sub =
          (* diagonal: j-1 in row i-1 is the same band index b *)
          if j = 0 then inf
          else
            let d = prev.(b) in
            if d >= inf then inf
            else
              d
              + (if s + j - 1 < n
                    && Bioseq.Packed_seq.get seq (s + j - 1) = pattern.(i - 1)
                 then 0
                 else 1)
        in
        let del =
          (* skip a pattern char: row i-1, same j = band b + 1 *)
          if b + 1 < width && prev.(b + 1) < inf then prev.(b + 1) + 1 else inf
        in
        let ins =
          (* consume a data char: same row, j-1 = band b - 1 *)
          if b > 0 && cur.(b - 1) < inf then cur.(b - 1) + 1 else inf
        in
        cur.(b) <- min sub (min del ins)
      end
    done;
    Array.blit cur 0 prev 0 width
  done;
  (* best over data lengths j = m - k .. m + k *)
  let best = ref None in
  for b = 0 to width - 1 do
    let j = m - k + b in
    if j >= 0 && s + j <= n && prev.(b) <= k then
      match !best with
      | Some (d, _) when d <= prev.(b) -> ()
      | _ -> best := Some (prev.(b), j)
  done;
  !best

let edit idx ~pattern ~k =
  validate pattern k;
  let m = Array.length pattern in
  let n = Spine.Compact_store.length idx in
  let seq = Spine.Compact_store.sequence idx in
  let starts =
    if k >= m then List.init (max 0 (n - (m - k) + 1)) (fun s -> s)
    else candidates idx pattern ~k ~slack:k
  in
  List.filter_map
    (fun s ->
      match banded_edit seq n pattern s k with
      | Some (errors, match_len) -> Some { pos = s; errors; match_len }
      | None -> None)
    starts
