(* An in-memory index saved as a persistent index file and loaded back:
   the round trip every [spine build] and [-i] reader pair makes. *)

module P = Spine.Persistent

let with_path f =
  let path = Filename.temp_file "spine_index" ".idx" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let save path idx = P.close (P.of_compact ~path idx)

let round_trip idx = with_path (fun path -> save path idx; P.load ~path)

(* Texts for the round trips: two corpora, and a^70000, whose LELs and
   PTs above 65534 must overflow their labels. *)
let texts () =
  let rng = Bioseq.Rng.create 64 in
  [ ("dna", Bioseq.Synthetic.genomic Bioseq.Alphabet.dna (Bioseq.Rng.split rng)
       5000);
    ("protein",
     Bioseq.Synthetic.genomic Bioseq.Alphabet.protein (Bioseq.Rng.split rng)
       3000);
    ("a^70000",
     Bioseq.Packed_seq.of_string Bioseq.Alphabet.dna (String.make 70_000 'a'))
  ]

(* The used bytes of an in-memory table. *)
let table_bytes tab =
  let module B = Spine.Compact_store.Btab in
  B.read_record tab ~off:0 ~len:(B.used tab) (fun b pos ->
      Bytes.sub b pos (B.used tab))

let side_entries tbl =
  List.sort compare (Xutil.Int_tbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Every difference between two in-memory stores' Section 5 state: the
   LT and RT bytes, the side tables, the freelists, live rows and
   migrations, and the sequence.  Empty when they are the same. *)
let differences (a : Spine.Compact.t) (b : Spine.Compact.t) =
  let module S = Spine.Compact_store in
  let diff name same = if same then [] else [ name ] in
  diff "lt" (Bytes.equal (table_bytes a.S.lt) (table_bytes b.S.lt))
  @ List.concat
      (List.init 4 (fun i ->
           diff (Printf.sprintf "rt%d" i)
             (Bytes.equal (table_bytes a.S.rts.(i)) (table_bytes b.S.rts.(i)))))
  @ diff "overflow" (side_entries a.S.overflow = side_entries b.S.overflow)
  @ diff "anchors" (side_entries a.S.anchors = side_entries b.S.anchors)
  @ diff "freelist" (a.S.freelist = b.S.freelist)
  @ diff "live rows" (a.S.live_rows = b.S.live_rows)
  @ diff "migrations" (a.S.migrations = b.S.migrations)
  @ diff "sequence" (Oracles.same_seq a.S.seq b.S.seq)
