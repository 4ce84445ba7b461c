let magic = "SPNE"
let version = 3
let header_size = 5
let trailer_size = 4

let corrupt ?page fmt = Spine_error.corrupt ~region:"snapshot" ?page fmt

(* little-endian primitives over Buffer / (string, pos) *)

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

let put_u32 buf v =
  for k = 0 to 3 do put_u8 buf ((v lsr (8 * k)) land 0xFF) done

let put_u64 buf v =
  for k = 0 to 7 do put_u8 buf ((v lsr (8 * k)) land 0xFF) done

type reader = { data : Bytes.t; mutable pos : int }

let need r n =
  if r.pos + n > Bytes.length r.data then
    corrupt ~page:r.pos "truncated input (need %d bytes at offset %d of %d)"
      n r.pos (Bytes.length r.data)

let get_u8 r =
  need r 1;
  let v = Char.code (Bytes.get r.data r.pos) in
  r.pos <- r.pos + 1;
  v

let get_u32 r =
  let v = ref 0 in
  for k = 0 to 3 do v := !v lor (get_u8 r lsl (8 * k)) done;
  !v

let get_u64 r =
  let v = ref 0 in
  for k = 0 to 7 do v := !v lor (get_u8 r lsl (8 * k)) done;
  !v

let alphabet_symbols alphabet =
  String.init (Bioseq.Alphabet.size alphabet)
    (fun code -> Bioseq.Alphabet.decode alphabet code)

let alphabet_of_symbols symbols =
  (* recover the canonical alphabets so names round-trip *)
  let candidates =
    [ Bioseq.Alphabet.dna; Bioseq.Alphabet.protein; Bioseq.Alphabet.byte ]
  in
  match
    List.find_opt
      (fun a -> String.equal (alphabet_symbols a) symbols)
      candidates
  with
  | Some a -> a
  | None -> Bioseq.Alphabet.make symbols

(* Versions 1 and 2 serialized the sequence at [Alphabet.bits] bits per
   symbol, MSB-first within each byte; v3 dumps the packed row's raw
   words instead.  Old images still load through this decoder. *)
let decode_legacy_sequence alphabet ~len bytes =
  let bits = Bioseq.Alphabet.bits alphabet in
  let seq = Bioseq.Packed_seq.create ~capacity:(max 1 len) alphabet in
  for i = 0 to len - 1 do
    let bit0 = i * bits in
    let code = ref 0 in
    for b = 0 to bits - 1 do
      let pos = bit0 + b in
      let byte = pos / 8 and off = pos mod 8 in
      let set = Char.code (Bytes.get bytes byte) land (0x80 lsr off) <> 0 in
      code := (!code lsl 1) lor (if set then 1 else 0)
    done;
    (* append validates against the alphabet, as of_packed_bits does *)
    Bioseq.Packed_seq.append seq !code
  done;
  seq

module S = Compact_store

let to_bytes (t : Compact.t) =
  let n = S.length t in
  let alphabet = S.alphabet t in
  let buf = Buffer.create (n * 12) in
  Buffer.add_string buf magic;
  put_u8 buf version;
  let symbols = alphabet_symbols alphabet in
  put_u32 buf (String.length symbols);
  Buffer.add_string buf symbols;
  put_u64 buf n;
  (* v3: the packed row IS the serialized form — cell width followed by
     the raw backing words, no per-code re-packing on snapshot *)
  let seq = S.sequence t in
  put_u8 buf (Bioseq.Packed_seq.width seq);
  let packed = Bioseq.Packed_seq.packed_bits seq in
  put_u32 buf (Bytes.length packed);
  Buffer.add_bytes buf packed;
  for node = 1 to n do
    put_u32 buf (S.link_dest t node);
    put_u32 buf (S.link_lel t node)
  done;
  (* each record list is preceded by its count, known only once the
     store has been walked *)
  let records = Buffer.create 1024 and count = ref 0 in
  let flush_records () =
    put_u32 buf !count;
    Buffer.add_buffer buf records;
    Buffer.clear records;
    count := 0
  in
  for node = 0 to n do
    S.fold_ribs t node ~init:() ~f:(fun () code dest pt ->
        incr count;
        put_u32 records node;
        put_u8 records code;
        put_u32 records dest;
        put_u32 records pt)
  done;
  flush_records ();
  for node = 0 to n do
    match S.find_extrib t node with
    | None -> ()
    | Some (dest, pt, prt, anchor) ->
      incr count;
      put_u32 records node;
      put_u32 records dest;
      put_u32 records pt;
      put_u32 records prt;
      put_u32 records anchor
  done;
  flush_records ();
  (* whole-snapshot CRC-32C over everything above: one flipped bit
     anywhere in the image is rejected before any of it is decoded *)
  let body = Buffer.to_bytes buf in
  let out = Bytes.create (Bytes.length body + trailer_size) in
  Bytes.blit body 0 out 0 (Bytes.length body);
  let crc = Xutil.Crc32c.bytes body in
  for k = 0 to 3 do
    Bytes.set out (Bytes.length body + k)
      (Char.chr ((crc lsr (8 * k)) land 0xFF))
  done;
  out

let of_bytes data =
  let len = Bytes.length data in
  if len < header_size then
    corrupt "input too short to be a snapshot (%d bytes)" len;
  if not (String.equal (Bytes.sub_string data 0 4) magic) then
    corrupt "bad magic (not a SPINE snapshot)";
  let v = Char.code (Bytes.get data 4) in
  if v < 1 || v > version then
    corrupt "unsupported snapshot version %d" v;
  (* Version 1 snapshots predate the whole-image checksum: same record
     layout, no trailer.  They still load (without integrity cover) so
     existing files need not be rebuilt. *)
  if v >= 2 then begin
    if len < header_size + trailer_size then
      corrupt "input too short to be a snapshot (%d bytes)" len;
    (* verify the trailing checksum before trusting any field *)
    let stored = ref 0 in
    for k = 3 downto 0 do
      stored := (!stored lsl 8) lor Char.code (Bytes.get data (len - 4 + k))
    done;
    let actual = Xutil.Crc32c.digest data ~pos:0 ~len:(len - trailer_size) in
    if actual <> !stored then
      corrupt "snapshot checksum mismatch (stored %08x, computed %08x)"
        !stored actual
  end;
  let r = { data; pos = header_size } in
  let sym_len = get_u32 r in
  need r sym_len;
  let symbols = Bytes.sub_string r.data r.pos sym_len in
  r.pos <- r.pos + sym_len;
  let alphabet = alphabet_of_symbols symbols in
  let n = get_u64 r in
  let seq =
    if v >= 3 then begin
      let w = get_u8 r in
      if w <> 2 && w <> 4 && w <> 8 then
        corrupt ~page:r.pos "unsupported sequence cell width %d" w;
      let cpw = 62 / w in
      (* sanity before allocating anything proportional to n: the
         payload that follows must physically be able to hold n codes
         at [cpw] codes per 8-byte word, plus n link records *)
      if n < 0 || n > Bytes.length r.data * cpw then
        corrupt ~page:r.pos "implausible sequence length %d" n;
      let packed_len = get_u32 r in
      if packed_len < (n + cpw - 1) / cpw * 8 then
        corrupt ~page:r.pos "sequence payload shorter than its declared length";
      need r packed_len;
      let packed = Bytes.sub r.data r.pos packed_len in
      r.pos <- r.pos + packed_len;
      try Bioseq.Packed_seq.of_packed_bits alphabet ~len:n ~width:w packed
      with Invalid_argument _ ->
        (* corrupt bit patterns: stray padding bits or out-of-alphabet
           codes *)
        corrupt ~page:r.pos "sequence payload decodes outside the alphabet"
    end
    else begin
      if n < 0
         || n > (Bytes.length r.data * 8) / Bioseq.Alphabet.bits alphabet
      then corrupt ~page:r.pos "implausible sequence length %d" n;
      let packed_len = get_u32 r in
      if packed_len < (n * Bioseq.Alphabet.bits alphabet + 7) / 8 then
        corrupt ~page:r.pos "sequence payload shorter than its declared length";
      need r packed_len;
      let packed = Bytes.sub r.data r.pos packed_len in
      r.pos <- r.pos + packed_len;
      try decode_legacy_sequence alphabet ~len:n packed
      with Invalid_argument _ ->
        (* corrupt bit patterns decode to out-of-alphabet codes *)
        corrupt ~page:r.pos "sequence payload decodes outside the alphabet"
    end
  in
  (* Replay the records into a fresh Section 5 store.  The store's
     row growth accepts ribs and extribs in any order; what it cannot
     hold — a record off the backbone, a second rib under one label or
     a second extrib at one node — is rejected here, typed, because a
     version-1 image has no checksum to catch it. *)
  let separator = S.carries_separator seq in
  let store = S.create ~capacity:(max 16 n) ~separator alphabet in
  Bioseq.Packed_seq.iteri seq ~f:(fun _ code -> S.append_char store code);
  for node = 1 to n do
    let dest = get_u32 r in
    let lel = get_u32 r in
    if dest > n then
      corrupt ~page:r.pos "link record references node beyond the backbone";
    S.set_link store node ~dest ~lel
  done;
  let nribs = get_u32 r in
  need r (nribs * 13);
  let top_code = Bioseq.Alphabet.size alphabet - if separator then 0 else 1 in
  for _ = 1 to nribs do
    let node = get_u32 r in
    let code = get_u8 r in
    let dest = get_u32 r in
    let pt = get_u32 r in
    if node >= n || dest > n || code > top_code then
      corrupt ~page:r.pos
        "rib record references a node or label outside the index";
    if code = S.char_at store node || Option.is_some (S.find_rib store node code)
    then
      corrupt ~page:r.pos "rib record duplicates an edge of node %d" node;
    S.add_rib store node ~code ~dest ~pt
  done;
  let next = get_u32 r in
  need r (next * 20);
  for _ = 1 to next do
    let node = get_u32 r in
    let dest = get_u32 r in
    let pt = get_u32 r in
    let prt = get_u32 r in
    let anchor = get_u32 r in
    if node > n || dest > n || pt > n || prt > n || anchor > n then
      corrupt ~page:r.pos "extrib record references node beyond the backbone";
    if Option.is_some (S.find_extrib store node) then
      corrupt ~page:r.pos "second extrib record for node %d" node;
    S.add_extrib store node ~dest ~pt ~prt ~anchor
  done;
  (* a checksum-less v1 image must end exactly here: trailing bytes mean
     a v2 image whose version byte was corrupted to 1 — rejecting them
     keeps the flipped byte from silently bypassing the CRC *)
  if v = 1 && r.pos <> len then
    corrupt ~page:r.pos "trailing bytes after a version-1 snapshot";
  store

let to_file path t =
  let oc =
    try open_out_bin path
    with Sys_error msg ->
      Spine_error.io_failed ~op:Spine_error.Write "%s" msg
  in
  (try output_bytes oc (to_bytes t) with e -> close_out oc; raise e);
  close_out oc

let of_file path =
  let ic =
    try open_in_bin path
    with Sys_error msg -> Spine_error.io_failed ~op:Spine_error.Read "%s" msg
  in
  let data =
    try
      let len = in_channel_length ic in
      let b = Bytes.create len in
      really_input ic b 0 len;
      b
    with e -> close_in ic; raise e
  in
  close_in ic;
  of_bytes data
