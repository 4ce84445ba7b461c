(** The metadata area of a persistent index file: the two shadow slots,
    the page-size stamp and the epoch-declaration page.

    Metadata is double-buffered: generation [g] goes to slot [g land 1]
    ({!Region_map.slot}), so a crash while writing the new generation
    always leaves the previous one intact.  A slot is a 32-byte header
    (magic ["SPNM"], version 5, generation, commit epoch, flags, payload
    length, payload CRC-32C, page size) and the {!payload}; the
    declaration page (magic ["SPNG"]) records the epoch the next session
    of writes will use, written ahead of any data write of that epoch,
    so epochs are never reused across crashes.  docs/ROBUSTNESS.md
    ("Metadata shadow slots") gives the layout. *)

(** {2 The payload} *)

type payload = {
  alphabet : Bioseq.Alphabet.t;
  length : int;  (** indexed characters *)
  width : int;  (** the sequence region's cell width *)
  rt_used : int array;  (** per Rib Table: used bytes *)
  freelist : int array;  (** per Rib Table: freelist head *)
  live_rows : int array;  (** per Rib Table: live rows *)
  migrations : int;
  side_records : int;  (** committed side-log records *)
  side_half : int;  (** the half the side log lies in *)
}
(** The committed state a slot records: the alphabet and the counters,
    not the tables. *)

val committed_bytes : payload -> Region_map.table -> int
(** The bytes a table uses at that state; the side log's other half
    uses none. *)

(** {2 Slots} *)

type slot = {
  generation : int;
  commit_epoch : int;
      (** every data page of this generation is stamped with an epoch
          no later than this *)
  clean : bool;  (** written by a clean close *)
  separator : bool;
      (** the store has the separator layout of a multi-string index *)
  payload : Bytes.t;  (** checksummed, not yet decoded *)
}

val read : Pagestore.Device.t -> int -> (slot, string) result
(** [read device i] reads slot [i], each of its pages once; [Error] says
    why it holds no valid generation ("slot never written", "bad
    metadata magic", "unsupported metadata version N", a page fault, a
    payload checksum mismatch, …). *)

val decode_payload : page_size:int -> slot -> payload
(** @raise Spine_error.Error ([Corrupt], region "meta") when the
    payload is truncated or implausible. *)

val write :
  Pagestore.Device.t -> generation:int -> commit_epoch:int -> clean:bool ->
  separator:bool -> payload -> unit
(** Write a generation into its slot, straight to the device.
    @raise Spine_error.Error ([Region_full], region "meta") when the
    payload outgrows a slot. *)

val write_page_size_stamp : Pagestore.Device.t -> unit
(** Stamp slot A's first page with a generation-0 header that reads as
    no slot but records the page size. *)

val recorded_page_size : string -> int option
(** The page size the file at a path records: the size at which slot
    A's first page, or else slot B's, is sealed and records that size
    (sizes up to 64 KiB).  [None] when neither yields one. *)

(** {2 The epoch declaration} *)

val write_epoch_decl : Pagestore.Device.t -> int -> unit

val read_epoch_decl : Pagestore.Device.t -> int option
(** The declared epoch; [None] when the page does not read as a
    declaration. *)
