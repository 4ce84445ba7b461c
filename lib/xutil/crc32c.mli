(** CRC-32C (Castagnoli, polynomial 0x1EDC6F41 reflected to
    0x82F63B78): the storage-grade checksum iSCSI/ext4/Btrfs use.
    Software slice-by-8: eight 256-entry tables fold 8 input bytes per
    step, and a bytewise loop takes the tail.  Results are the standard
    CRC-32C values in the range [0, 2^32), the same as a bytewise
    table gives, so every checksum already on disk still verifies. *)

val digest : ?seed:int -> Bytes.t -> pos:int -> len:int -> int
(** [digest b ~pos ~len] checksums the given range.  [seed] (default 0)
    is a previous digest, allowing incremental computation:
    [digest ~seed:(digest a) b] = digest of [a ^ b].
    @raise Invalid_argument if the range is out of bounds. *)

val bytes : Bytes.t -> int
(** Digest of a whole buffer. *)
