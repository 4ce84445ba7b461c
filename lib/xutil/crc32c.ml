(* Table-driven CRC-32C (Castagnoli), reflected polynomial 0x82F63B78 —
   the checksum used by iSCSI, ext4 and Btrfs for exactly this job:
   catching bit flips and torn sectors in storage pages. *)

(* Designated unsafe boundary (spine-lint L11): the unchecked byte
   reads follow an explicit range validation at the digest entry, the
   unchecked table reads index with a value masked to 8 bits, and
   [Bytes.unsafe_of_string] never leaks the bytes to a writer. *)
[@@@spine.checked_boundary
  "range validated at entry; table indices masked to 8 bits; converted \
   bytes are read-only here"]

(* Slice-by-8: [tables] holds eight 256-entry tables back to back.
   Table 0 is the classic bytewise table; table k advances a byte's
   contribution through k more zero bytes, so one step folds 8 input
   bytes with 8 lookups instead of 8 dependent shift-and-lookup
   rounds. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0x82F63B78 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let[@inline] tab k i = Array.unsafe_get tables ((k lsl 8) lor (i land 0xFF))

let[@inline] u8 data i = Char.code (Bytes.unsafe_get data i)

let digest ?(seed = 0) data ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length data then
    invalid_arg "Crc32c.digest: range out of bounds";
  let c = ref (seed lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let j = !i in
    (* bytes 0..6 of the little-endian word ([to_int] drops bit 63, so
       byte 7 is read on its own); the first four fold into the
       running value, the next four enter fresh *)
    let w = Int64.to_int (Bytes.get_int64_le data j) in
    let lo = !c lxor w in
    c :=
      tab 7 lo lxor tab 6 (lo lsr 8) lxor tab 5 (lo lsr 16)
      lxor tab 4 (lo lsr 24) lxor tab 3 (w lsr 32) lxor tab 2 (w lsr 40)
      lxor tab 1 (w lsr 48) lxor tab 0 (u8 data (j + 7));
    i := j + 8
  done;
  for j = !i to pos + len - 1 do
    c := tab 0 (!c lxor u8 data j) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let bytes data = digest data ~pos:0 ~len:(Bytes.length data)

