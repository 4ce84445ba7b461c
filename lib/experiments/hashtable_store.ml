(** The hashtable-backed SPINE store: the naive in-memory layout the
    node-layout ablation (Section 5) times against the paper's Link
    Table + Rib Tables, and the independent structural reference the
    test suite checks {!Spine.Compact_store} against.  Not a library
    backend: only the ablation, its micro-bench kernel and the tests
    use it.

    Links are dense (every node has one) and live in flat vectors; ribs
    and extribs are sparse (Table 4: under 35 % of nodes carry any) and
    live in int-specialised hashtables ({!Xutil.Int_tbl} — no generic
    hashing on the lookup path) keyed by [(node << code_bits) | code].
    Rib payloads are packed into a single immediate integer to avoid
    allocating on the construction hot path.  {!Store} implements
    {!Spine.Store_sig.S}. *)

module Store = struct
  module Tbl = Xutil.Int_tbl

  type t = {
    seq : Bioseq.Packed_seq.t;
    code_bits : int;
    link_dest : Xutil.Int_vec.t;       (* entry per node; slot 0 unused *)
    link_lel : Xutil.Int_vec.t;
    ribs : int Tbl.t;                  (* key (node << bits) | code *)
    extribs : (int * int * int * int) Tbl.t;
    (* node -> dest, pt, prt, anchor (parent rib's destination) *)
  }

  let create ?(capacity = 1024) alphabet =
    let link_dest = Xutil.Int_vec.create ~capacity () in
    let link_lel = Xutil.Int_vec.create ~capacity () in
    (* root node *)
    Xutil.Int_vec.push link_dest 0;
    Xutil.Int_vec.push link_lel 0;
    { seq = Bioseq.Packed_seq.create ~capacity alphabet;
      code_bits = Bioseq.Alphabet.bits alphabet;
      link_dest; link_lel;
      ribs = Tbl.create (max 16 (capacity / 4));
      extribs = Tbl.create 64 }

  let alphabet t = Bioseq.Packed_seq.alphabet t.seq
  let length t = Bioseq.Packed_seq.length t.seq
  let sequence t = t.seq
  let char_at t i = Bioseq.Packed_seq.get t.seq i

  let append_char t c =
    Bioseq.Packed_seq.append t.seq c;
    Xutil.Int_vec.push t.link_dest 0;
    Xutil.Int_vec.push t.link_lel 0

  let link_dest t i = Xutil.Int_vec.get t.link_dest i
  let link_lel t i = Xutil.Int_vec.get t.link_lel i

  let scan_links t ~from ~min_lel ~marks f =
    for node = from to length t do
      let lel = Xutil.Int_vec.get t.link_lel node in
      if lel >= min_lel then begin
        let dest = Xutil.Int_vec.get t.link_dest node in
        if Xutil.Node_bits.mem marks dest then f node lel dest
      end
    done

  let set_link t i ~dest ~lel =
    Xutil.Int_vec.set t.link_dest i dest;
    Xutil.Int_vec.set t.link_lel i lel

  (* dest and pt each fit in 31 bits for any string this store can hold *)
  let pack ~dest ~pt = (dest lsl 31) lor pt
  let unpack v = (v lsr 31, v land 0x7FFF_FFFF)

  let rib_key t node code = (node lsl t.code_bits) lor code

  let find_rib t node code =
    match Tbl.find_opt t.ribs (rib_key t node code) with
    | None -> None
    | Some v -> Some (unpack v)

  let add_rib t node ~code ~dest ~pt =
    Tbl.replace t.ribs (rib_key t node code) (pack ~dest ~pt)

  let find_extrib t node = Tbl.find_opt t.extribs node

  let add_extrib t node ~dest ~pt ~prt ~anchor =
    Tbl.replace t.extribs node (dest, pt, prt, anchor)

  let fold_ribs t node ~init ~f =
    (* codes up to the separator: a multi-string text labels ribs
       with it too *)
    let top = Bioseq.Alphabet.separator (alphabet t) in
    let acc = ref init in
    for code = 0 to top do
      match find_rib t node code with
      | Some (dest, pt) -> acc := f !acc code dest pt
      | None -> ()
    done;
    !acc

  (* Memory model for the comparison tables: what a C implementation of
     this logical structure would allocate, using the paper's optimised
     field widths (Section 5): 4-byte destinations, 2-byte numeric labels,
     bit-packed character labels. *)
  let model_bytes t =
    let n = length t in
    let lt_bytes = (4 + 2) * (n + 1) in
    let rib_bytes = (4 + 2) * Tbl.length t.ribs in
    (* dest + PT + PRT + 4-byte anchor (the chain-attribution correction) *)
    let extrib_bytes = (4 + 2 + 2 + 4) * Tbl.length t.extribs in
    let cl_bytes =
      (n * Bioseq.Alphabet.payload_bits (alphabet t) + 7) / 8
    in
    lt_bytes + rib_bytes + extrib_bytes + cl_bytes

  let rib_count t = Tbl.length t.ribs
  let extrib_count t = Tbl.length t.extribs

  (* Measured live bytes of this OCaml representation (not the C model of
     [model_bytes]): the packed word row for the sequence ([62 / width]
     codes per 8-byte word), one word per link vector slot, and ~4 words
     per hashtable binding (bucket cons: header + key + data + next) plus
     the boxed payload tuple for extribs (header + 4 fields). *)
  let space_components t =
    let word = Sys.word_size / 8 in
    let n = length t in
    [ ("vertebrae", Bioseq.Packed_seq.packed_byte_length t.seq);
      ("links", 2 * (n + 1) * word);
      ("ribs", rib_count t * 4 * word);
      ("extribs", extrib_count t * (4 + 5) * word) ]
end

include Store
module Build = Spine.Builder.Make (Store)

let of_seq seq =
  let t =
    create ~capacity:(max 16 (Bioseq.Packed_seq.length seq))
      (Bioseq.Packed_seq.alphabet seq)
  in
  Build.append_seq t seq;
  t

let of_string alphabet s =
  let t = create ~capacity:(max 16 (String.length s)) alphabet in
  Build.append_string t s;
  t
