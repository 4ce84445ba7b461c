module Int_vec = Xutil.Int_vec

(* Suffix automaton with transitions in per-state association lists
   packed into parallel vectors: [trans_head.(v)] is the first cell of
   state [v]'s transition list; each cell stores (code, target, next).

   [primary.(v)] is 1 for states created as the new "last" of an
   extension step (each corresponds to exactly one end position of the
   text) and 0 for clones — the seed values of occurrence counting. *)
type t = {
  alphabet : Bioseq.Alphabet.t;
  n : int;
  len : Int_vec.t;            (* longest string length per state *)
  link : Int_vec.t;           (* suffix link, -1 at the initial state *)
  trans_head : Int_vec.t;     (* first transition cell, -1 = none *)
  primary : Int_vec.t;
  cell_code : Int_vec.t;
  cell_target : Int_vec.t;
  cell_next : Int_vec.t;
  mutable occ : int array option;  (* occurrence counts, computed lazily *)
}

let init_state = 0

let new_state t ~len ~link ~primary =
  let v = Int_vec.length t.len in
  Int_vec.push t.len len;
  Int_vec.push t.link link;
  Int_vec.push t.trans_head (-1);
  Int_vec.push t.primary (if primary then 1 else 0);
  v

let find_transition t v c =
  let rec go cell =
    if cell < 0 then -1
    else if Int_vec.get t.cell_code cell = c then Int_vec.get t.cell_target cell
    else go (Int_vec.get t.cell_next cell)
  in
  go (Int_vec.get t.trans_head v)

let set_transition t v c target =
  let rec go cell =
    if cell < 0 then begin
      let cell = Int_vec.length t.cell_code in
      Int_vec.push t.cell_code c;
      Int_vec.push t.cell_target target;
      Int_vec.push t.cell_next (Int_vec.get t.trans_head v);
      Int_vec.set t.trans_head v cell
    end
    else if Int_vec.get t.cell_code cell = c then
      Int_vec.set t.cell_target cell target
    else go (Int_vec.get t.cell_next cell)
  in
  go (Int_vec.get t.trans_head v)

let copy_transitions t ~src ~dst =
  let rec go cell =
    if cell >= 0 then begin
      set_transition t dst (Int_vec.get t.cell_code cell)
        (Int_vec.get t.cell_target cell);
      go (Int_vec.get t.cell_next cell)
    end
  in
  go (Int_vec.get t.trans_head src)

let extend t last c =
  let cur =
    new_state t ~len:(Int_vec.get t.len last + 1) ~link:(-1) ~primary:true
  in
  let p = ref last in
  while !p >= 0 && find_transition t !p c < 0 do
    set_transition t !p c cur;
    p := Int_vec.get t.link !p
  done;
  if !p < 0 then Int_vec.set t.link cur init_state
  else begin
    let q = find_transition t !p c in
    if Int_vec.get t.len q = Int_vec.get t.len !p + 1 then
      Int_vec.set t.link cur q
    else begin
      (* split: clone q at the shorter length *)
      let clone =
        new_state t ~len:(Int_vec.get t.len !p + 1)
          ~link:(Int_vec.get t.link q) ~primary:false
      in
      copy_transitions t ~src:q ~dst:clone;
      Int_vec.set t.link q clone;
      Int_vec.set t.link cur clone;
      let p2 = ref !p in
      while !p2 >= 0 && find_transition t !p2 c = q do
        set_transition t !p2 c clone;
        p2 := Int_vec.get t.link !p2
      done
    end
  end;
  cur

let build seq =
  let t =
    { alphabet = Bioseq.Packed_seq.alphabet seq;
      n = Bioseq.Packed_seq.length seq;
      len = Int_vec.create ();
      link = Int_vec.create ();
      trans_head = Int_vec.create ();
      primary = Int_vec.create ();
      cell_code = Int_vec.create ();
      cell_target = Int_vec.create ();
      cell_next = Int_vec.create ();
      occ = None }
  in
  ignore (new_state t ~len:0 ~link:(-1) ~primary:false);
  let last = ref init_state in
  Bioseq.Packed_seq.iteri seq ~f:(fun _ c -> last := extend t !last c);
  t

let of_string alphabet s = build (Bioseq.Packed_seq.of_string alphabet s)

let state_count t = Int_vec.length t.len

let walk t codes =
  let m = Array.length codes in
  let rec go v i =
    if i >= m then v
    else
      let nxt = find_transition t v codes.(i) in
      if nxt < 0 then -1 else go nxt (i + 1)
  in
  go init_state 0

let contains_codes t codes = walk t codes >= 0

let contains t s =
  match
    Array.init (String.length s)
      (fun i -> Bioseq.Alphabet.encode t.alphabet s.[i])
  with
  | codes -> contains_codes t codes
  | exception Invalid_argument _ -> false

(* occurrence counts: seed 1 at primary states, then propagate along
   suffix links in decreasing order of [len] (counting sort by len) *)
let occurrence_table t =
  match t.occ with
  | Some occ -> occ
  | None ->
    let states = state_count t in
    let occ = Array.make states 0 in
    for v = 0 to states - 1 do occ.(v) <- Int_vec.get t.primary v done;
    let order = Array.init states (fun v -> v) in
    Array.sort
      (fun a b -> compare (Int_vec.get t.len b) (Int_vec.get t.len a))
      order;
    Array.iter
      (fun v ->
        let l = Int_vec.get t.link v in
        if l >= 0 then occ.(l) <- occ.(l) + occ.(v))
      order;
    t.occ <- Some occ;
    occ

let count_occurrences t codes =
  if Array.length codes = 0 then 0
  else
    let v = walk t codes in
    if v < 0 then 0 else (occurrence_table t).(v)
