module Int_vec = Xutil.Int_vec

type trace = structure:int -> index:int -> write:bool -> unit

(* Per-node record fields, one growable vector each. Edge into node [v]
   is codes[start.(v) .. start.(v) + elen.(v) - 1]; leaves use an
   "infinite" elen that is clamped against the current end. *)
type t = {
  seq : Bioseq.Packed_seq.t;
  codes : int array;            (* data codes plus terminator *)
  n : int;                      (* data length, excluding terminator *)
  start : Int_vec.t;
  elen : Int_vec.t;
  slink : Int_vec.t;
  child : Int_vec.t;            (* first child, -1 = none *)
  sibling : Int_vec.t;          (* next sibling, -1 = none *)
  leafpos : Int_vec.t;          (* suffix start for leaves, -1 internal *)
  mutable internal_nodes : int;
  mutable leaves : int;
  trace : trace option;
}

let inf = max_int / 4
let root = 0

let touch t ~index ~write =
  match t.trace with
  | None -> ()
  | Some f -> f ~structure:0 ~index ~write

let new_node t ~start ~elen ~leafpos =
  let v = Int_vec.length t.start in
  Int_vec.push t.start start;
  Int_vec.push t.elen elen;
  Int_vec.push t.slink root;
  Int_vec.push t.child (-1);
  Int_vec.push t.sibling (-1);
  Int_vec.push t.leafpos leafpos;
  if leafpos >= 0 then t.leaves <- t.leaves + 1
  else t.internal_nodes <- t.internal_nodes + 1;
  touch t ~index:v ~write:true;
  v

let edge_length t v ~pos =
  min (Int_vec.get t.elen v) (pos + 1 - Int_vec.get t.start v)

let first_code t v = t.codes.(Int_vec.get t.start v)

(* Walk the sibling chain of [v]'s children looking for the child whose
   edge starts with [c]. Fanout is bounded by the alphabet size. *)
let find_child t v c =
  touch t ~index:v ~write:false;
  let rec go u =
    if u < 0 then -1
    else begin
      touch t ~index:u ~write:false;
      if first_code t u = c then u else go (Int_vec.get t.sibling u)
    end
  in
  go (Int_vec.get t.child v)

let add_child t v u =
  Int_vec.set t.sibling u (Int_vec.get t.child v);
  Int_vec.set t.child v u;
  touch t ~index:v ~write:true;
  touch t ~index:u ~write:true

(* Replace child [old_u] of [v] by [new_u] in place in the sibling
   chain. *)
let replace_child t v old_u new_u =
  touch t ~index:v ~write:true;
  if Int_vec.get t.child v = old_u then Int_vec.set t.child v new_u
  else begin
    let rec go u =
      if u < 0 then assert false
      else if Int_vec.get t.sibling u = old_u then begin
        Int_vec.set t.sibling u new_u;
        touch t ~index:u ~write:true
      end
      else go (Int_vec.get t.sibling u)
    in
    go (Int_vec.get t.child v)
  end;
  Int_vec.set t.sibling new_u (Int_vec.get t.sibling old_u)

type ukk_state = {
  mutable active_node : int;
  mutable active_edge : int;    (* index into codes *)
  mutable active_len : int;
  mutable remainder : int;
  mutable need_slink : int;     (* pending suffix-link source, -1 none *)
}

let set_slink t st v =
  if st.need_slink > 0 then begin
    Int_vec.set t.slink st.need_slink v;
    touch t ~index:st.need_slink ~write:true
  end;
  st.need_slink <- v

let extend t st pos =
  let c = t.codes.(pos) in
  st.need_slink <- -1;
  st.remainder <- st.remainder + 1;
  let continue = ref true in
  while !continue && st.remainder > 0 do
    if st.active_len = 0 then st.active_edge <- pos;
    let nxt = find_child t st.active_node t.codes.(st.active_edge) in
    let stepped =
      if nxt < 0 then begin
        let leaf =
          new_node t ~start:pos ~elen:inf ~leafpos:(pos - st.remainder + 1)
        in
        add_child t st.active_node leaf;
        set_slink t st st.active_node;
        true
      end
      else begin
        let el = edge_length t nxt ~pos in
        if st.active_len >= el then begin
          (* walk down: the active point lies beyond this edge *)
          st.active_edge <- st.active_edge + el;
          st.active_len <- st.active_len - el;
          st.active_node <- nxt;
          false
        end
        else if t.codes.(Int_vec.get t.start nxt + st.active_len) = c then begin
          (* the character is already present: rule 3, stop early *)
          st.active_len <- st.active_len + 1;
          set_slink t st st.active_node;
          continue := false;
          false
        end
        else begin
          (* split the edge and hang a fresh leaf off the split node *)
          let split =
            new_node t ~start:(Int_vec.get t.start nxt) ~elen:st.active_len
              ~leafpos:(-1)
          in
          replace_child t st.active_node nxt split;
          let leaf =
            new_node t ~start:pos ~elen:inf ~leafpos:(pos - st.remainder + 1)
          in
          Int_vec.set t.child split leaf;
          Int_vec.set t.sibling leaf (-1);
          Int_vec.set t.start nxt (Int_vec.get t.start nxt + st.active_len);
          if Int_vec.get t.elen nxt < inf then
            Int_vec.set t.elen nxt (Int_vec.get t.elen nxt - st.active_len);
          Int_vec.set t.sibling nxt (Int_vec.get t.child split);
          Int_vec.set t.child split nxt;
          touch t ~index:split ~write:true;
          touch t ~index:nxt ~write:true;
          set_slink t st split;
          true
        end
      end
    in
    if !continue && stepped then begin
      st.remainder <- st.remainder - 1;
      if st.active_node = root && st.active_len > 0 then begin
        st.active_len <- st.active_len - 1;
        st.active_edge <- pos - st.remainder + 1
      end
      else if st.active_node <> root then begin
        st.active_node <- Int_vec.get t.slink st.active_node;
        touch t ~index:st.active_node ~write:false
      end
    end
  done

let build ?trace seq =
  let n = Bioseq.Packed_seq.length seq in
  let alphabet = Bioseq.Packed_seq.alphabet seq in
  let codes =
    Array.init (n + 1) (fun i ->
        if i = n then Bioseq.Alphabet.separator alphabet
        else Bioseq.Packed_seq.get seq i)
  in
  let t =
    { seq; codes; n;
      start = Int_vec.create ~capacity:1024 ();
      elen = Int_vec.create ~capacity:1024 ();
      slink = Int_vec.create ~capacity:1024 ();
      child = Int_vec.create ~capacity:1024 ();
      sibling = Int_vec.create ~capacity:1024 ();
      leafpos = Int_vec.create ~capacity:1024 ();
      internal_nodes = 0; leaves = 0; trace }
  in
  let r = new_node t ~start:(-1) ~elen:0 ~leafpos:(-1) in
  assert (r = root);
  t.internal_nodes <- 0;  (* do not count the root as internal *)
  let st =
    { active_node = root; active_edge = 0; active_len = 0;
      remainder = 0; need_slink = -1 }
  in
  for pos = 0 to n do extend t st pos done;
  t

let of_string ?trace alphabet s = build ?trace (Bioseq.Packed_seq.of_string alphabet s)

let node_count t = Int_vec.length t.start
let internal_count t = t.internal_nodes
let leaf_count t = t.leaves

let model_bytes_per_char t =
  (* MUMmer-era C layouts pack an internal node into 16 bytes (child,
     sibling, suffix link, edge info) and a leaf into a single 4-byte
     entry of the leaf array; with the observed ~0.8 internal nodes per
     character this lands at the ~17 bytes/char the paper quotes for
     standard suffix tree implementations. *)
  if t.n = 0 then 0.0
  else
    float_of_int ((16 * internal_count t) + (4 * leaf_count t))
    /. float_of_int t.n

(* Walk the pattern from the root; returns the locus. *)
let find_codes t pattern =
  let m = Array.length pattern in
  let pos = t.n in (* tree is complete; edge lengths clamp against n+1 *)
  let rec go v i =
    if i >= m then Some (v, 0)
    else begin
      let u = find_child t v pattern.(i) in
      if u < 0 then None
      else begin
        let el = edge_length t u ~pos in
        let estart = Int_vec.get t.start u in
        let rec walk j =
          (* compare pattern.(i + j) against edge char j *)
          if i + j >= m then Some (u, j)
          else if j >= el then go u (i + el)
          else if t.codes.(estart + j) = pattern.(i + j) then walk (j + 1)
          else None
        in
        match walk 1 with
        | Some (u, j) when j = el -> Some (u, 0)
        | other -> other
      end
    end
  in
  if m = 0 then Some (root, 0) else go root 0

let contains_codes t pattern = find_codes t pattern <> None

let encode_pattern t s =
  let alphabet = Bioseq.Packed_seq.alphabet t.seq in
  try
    Some (Array.init (String.length s)
            (fun i -> Bioseq.Alphabet.encode alphabet s.[i]))
  with Invalid_argument _ -> None

let contains t s =
  match encode_pattern t s with
  | Some p -> contains_codes t p
  | None -> false

(* Enumerate leaf positions under [v] with an explicit stack: recursion
   depth equals tree depth, which adversarial (periodic) strings make
   linear. *)
let leaves_under t v =
  let acc = ref [] in
  let stack = Int_vec.create () in
  Int_vec.push stack v;
  while Int_vec.length stack > 0 do
    let u = Int_vec.pop stack in
    touch t ~index:u ~write:false;
    let lp = Int_vec.get t.leafpos u in
    if lp >= 0 then acc := lp :: !acc
    else begin
      let rec push_children w =
        if w >= 0 then begin
          Int_vec.push stack w;
          push_children (Int_vec.get t.sibling w)
        end
      in
      push_children (Int_vec.get t.child u)
    end
  done;
  !acc

let occurrences t pattern =
  match find_codes t pattern with
  | None -> []
  | Some (v, _below) -> List.sort compare (leaves_under t v)

let first_occurrence t pattern =
  match occurrences t pattern with
  | [] -> None
  | p :: _ -> Some p

type match_stats = {
  nodes_checked : int;
  suffixes_checked : int;
}

(* Matching-statistics walker: the current match of length [len] is
   query[i - len + 1 .. i]; its position in the tree is node [v] of
   string depth [dv], plus [off] characters down the edge into [below]
   when [off > 0]. On a failed extension the walker follows [v]'s suffix
   link (one suffix candidate checked, the paper's per-suffix cost) and
   rescans with skip/count. *)
type walker = {
  tree : t;
  mutable v : int;
  mutable dv : int;
  mutable below : int;
  mutable off : int;
  mutable len : int;
  mutable w_nodes : int;
  mutable w_suffixes : int;
  wtrace : trace option;
}

let wtouch w ~index =
  (match w.wtrace with
   | None -> ()
   | Some f -> f ~structure:0 ~index ~write:false);
  w.w_nodes <- w.w_nodes + 1

let wfind_child w v c =
  wtouch w ~index:v;
  let t = w.tree in
  let rec go u =
    if u < 0 then -1
    else begin
      wtouch w ~index:u;
      if first_code t u = c then u else go (Int_vec.get t.sibling u)
    end
  in
  go (Int_vec.get t.child v)

(* Rescan: descend from (w.v, w.dv) along the known-present string
   query[qfirst ..] for [remaining] characters using skip/count. *)
let rescan w (q : Bioseq.Packed_seq.t) qfirst remaining =
  let t = w.tree in
  let pos = t.n in
  let qfirst = ref qfirst and remaining = ref remaining in
  w.below <- -1;
  w.off <- 0;
  while !remaining > 0 do
    let u = wfind_child w w.v (Bioseq.Packed_seq.get q !qfirst) in
    assert (u >= 0);
    let el = edge_length t u ~pos in
    if !remaining >= el then begin
      w.v <- u;
      w.dv <- w.dv + el;
      qfirst := !qfirst + el;
      remaining := !remaining - el
    end
    else begin
      w.below <- u;
      w.off <- !remaining;
      remaining := 0
    end
  done

(* Try to consume [c]; true on success. *)
let try_extend w c =
  let t = w.tree in
  let pos = t.n in
  if w.off = 0 then begin
    let u = wfind_child w w.v c in
    if u < 0 then false
    else begin
      let el = edge_length t u ~pos in
      if el = 1 then begin w.v <- u; w.dv <- w.dv + 1 end
      else begin w.below <- u; w.off <- 1 end;
      w.len <- w.len + 1;
      true
    end
  end
  else begin
    let estart = Int_vec.get t.start w.below in
    if t.codes.(estart + w.off) = c then begin
      let el = edge_length t w.below ~pos in
      w.off <- w.off + 1;
      if w.off = el then begin
        w.v <- w.below;
        w.dv <- w.dv + el;
        w.below <- -1;
        w.off <- 0
      end;
      w.len <- w.len + 1;
      true
    end
    else false
  end

(* One suffix-link hop: drop the first character of the current match
   and re-locate the remainder. The suffix-link target of [v] has string
   depth [dv - 1], so only the below-node part of the match needs
   rescanning. *)
let follow_suffix w (q : Bioseq.Packed_seq.t) i =
  let t = w.tree in
  w.w_suffixes <- w.w_suffixes + 1;
  let below_len = w.len - w.dv in
  w.len <- w.len - 1;
  if w.v = root then begin
    (* the match lived entirely below the root: re-walk all of it *)
    w.dv <- 0;
    rescan w q (i - w.len) w.len
  end
  else begin
    w.v <- Int_vec.get t.slink w.v;
    wtouch w ~index:w.v;
    w.dv <- w.dv - 1;
    rescan w q (i - below_len) below_len
  end

let matching_statistics ?trace t q =
  let m = Bioseq.Packed_seq.length q in
  let ms = Array.make (max m 1) 0 in
  let w =
    { tree = t; v = root; dv = 0; below = -1; off = 0; len = 0;
      w_nodes = 0; w_suffixes = 0; wtrace = trace }
  in
  for i = 0 to m - 1 do
    let c = Bioseq.Packed_seq.get q i in
    let extended = ref (try_extend w c) in
    while (not !extended) && w.len > 0 do
      follow_suffix w q i;
      extended := try_extend w c
    done;
    ms.(i) <- w.len
  done;
  (ms, { nodes_checked = w.w_nodes; suffixes_checked = w.w_suffixes })

type mmatch = {
  query_end : int;
  length : int;
  data_ends : int list;
}

let maximal_matches ?trace t ~threshold q =
  let m = Bioseq.Packed_seq.length q in
  let ms = Array.make (max m 1) 0 in
  let locus = Array.make (max m 1) (-1) in
  let w =
    { tree = t; v = root; dv = 0; below = -1; off = 0; len = 0;
      w_nodes = 0; w_suffixes = 0; wtrace = trace }
  in
  for i = 0 to m - 1 do
    let c = Bioseq.Packed_seq.get q i in
    let extended = ref (try_extend w c) in
    while (not !extended) && w.len > 0 do
      follow_suffix w q i;
      extended := try_extend w c
    done;
    ms.(i) <- w.len;
    locus.(i) <- (if w.off > 0 then w.below else w.v)
  done;
  let matches = ref [] in
  for i = m - 1 downto 0 do
    let right_maximal = i = m - 1 || ms.(i + 1) <= ms.(i) in
    if right_maximal && ms.(i) >= threshold && threshold > 0 then begin
      let starts = leaves_under t locus.(i) in
      let ends =
        starts
        |> List.filter (fun p -> p + ms.(i) <= t.n)
        |> List.map (fun p -> p + ms.(i) - 1)
        |> List.sort compare
      in
      matches := { query_end = i; length = ms.(i); data_ends = ends } :: !matches
    end
  done;
  (!matches, { nodes_checked = w.w_nodes; suffixes_checked = w.w_suffixes })
