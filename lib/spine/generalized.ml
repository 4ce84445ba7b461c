type entry = {
  entry_name : string;
  start : int;    (* global 0-based position of the string's first char *)
  len : int;
}

type t = {
  idx : Compact.t;
  engine : Engine.t;
  mutable entries : entry array;   (* ascending by start *)
}

let create alphabet =
  let idx = Compact_store.create ~separator:true alphabet in
  { idx; engine = Compact.engine idx; entries = [||] }

let count t = Array.length t.entries

let add t ?name seq =
  let alphabet = Compact_store.alphabet t.idx in
  if not (Bioseq.Alphabet.equal (Bioseq.Packed_seq.alphabet seq) alphabet)
  then invalid_arg "Generalized.add: alphabet mismatch";
  (* separator BETWEEN strings only *)
  if count t > 0 then Compact.append t.idx (Bioseq.Alphabet.separator alphabet);
  let start = Compact_store.length t.idx in
  Bioseq.Packed_seq.iteri seq ~f:(fun _ code -> Compact.append t.idx code);
  let id = count t in
  let entry_name =
    match name with Some n -> n | None -> Printf.sprintf "s%d" id
  in
  t.entries <-
    Array.append t.entries
      [| { entry_name; start; len = Bioseq.Packed_seq.length seq } |];
  id

let name t id = t.entries.(id).entry_name
let engine t = t.engine

type hit = {
  string_id : int;
  pos : int;
}

let locate t gpos =
  (* binary search for the entry containing the global position *)
  let lo = ref 0 and hi = ref (Array.length t.entries - 1) in
  if !hi < 0 then invalid_arg "Generalized.locate: empty index";
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.entries.(mid).start <= gpos then lo := mid else hi := mid - 1
  done;
  let e = t.entries.(!lo) in
  if gpos < e.start || gpos >= e.start + e.len then
    invalid_arg "Generalized.locate: position on a separator or out of range";
  { string_id = !lo; pos = gpos - e.start }

let occurrences t p =
  Engine.occurrences_pattern t.engine p |> List.map (fun gpos -> locate t gpos)
