(** Simulated block device.

    The paper's disk experiments (Figure 7, Table 7) were run on an IDE
    disk with synchronous writes ([O_SYNC]) precisely so that the measured
    times reflect each index's {e access locality} rather than OS caching.
    This module reproduces that methodology deterministically: a device
    is an in-memory page map plus counters and a latency cost model.  The
    "time" an experiment reports is the accumulated simulated latency,
    which depends only on the I/O trace — identical across machines and
    runs, unlike wall-clock disk timings.

    Cost model (the same for every device, calibrated to an
    early-2000s IDE disk): a page read costs 8 ms, a write 9 ms; when
    [sync_writes] is set every write also pays 4 ms, mirroring the
    paper's [O_SYNC] setup.  Sequential accesses (page adjacent to the
    previous access) cost 0.1 ms instead of the full seek, which is
    what rewards SPINE's append-mostly, top-skewed access pattern.
    Absolute values only scale the reported times; relative results
    depend only on the trace.

    {2 Integrity}

    With [~checksums:true] every logical page is stored in a physical
    slot of [page_size + 16] bytes: the data followed by a trailer
    carrying a magic, the {e epoch} the page was written under, and a
    CRC-32C over both.  {!read} validates the trailer and raises a
    typed {!Spine_error.Error} ([Corrupt]) on any mismatch — a flipped
    bit, a torn sector, or debris from a crashed session (a page whose
    epoch exceeds the committed ceiling, see {!set_max_valid_epoch}) is
    detected instead of silently decoded.  A never-written slot reads
    as zeroes, exactly like the unchecksummed device, unless
    {!set_committed} names it.

    {2 Fault injection}

    {!set_hooks} installs an observer that can fail reads, and tamper
    with / tear / drop writes — {!Fault_device} builds its deterministic
    fault plans on top of this. *)

type t

val create :
  ?sync_writes:bool -> ?checksums:bool -> page_size:int -> unit -> t
(** Fresh in-memory device; pages are [page_size] bytes. [sync_writes]
    and [checksums] default to [false]. *)

val create_file :
  ?sync_writes:bool -> ?checksums:bool -> ?read_only:bool ->
  page_size:int -> path:string -> unit -> t
(** A device backed by a real file (created if absent, reopened
    otherwise): page [p] lives at byte offset [p * slot] where [slot]
    is [page_size] plus the 16-byte trailer when [checksums] is set.
    The simulated-latency counters still run — they model the 2004
    testbed regardless of the actual storage — but the data is durable,
    which is what {!Spine.Persistent} builds on.  Page ids must stay
    below 2^40 (sparse files handle the gaps).
    With [read_only] (default [false]) the file is opened for reading
    only and must exist; a write then fails with [Io_failed].
    @raise Spine_error.Error ([Io_failed]) if the file cannot be
    opened. *)

val close : t -> unit
(** Release the backing file descriptor (no-op for in-memory devices). *)

val page_size : t -> int

val phys_size : t -> int
(** Bytes per physical slot: [page_size] plus the trailer when
    checksummed. *)

val get_u32 : Bytes.t -> int -> int
val set_u32 : Bytes.t -> int -> int -> unit
(** The little-endian unsigned 32-bit field at a byte offset of a page
    image: the codec of the trailer, and of every header a page owner
    lays out in the data ([set_u32] stores [v land 0xFFFF_FFFF]). *)

val read : t -> int -> Bytes.t
(** [read dev p] returns a copy of page [p]'s contents (zero-filled if
    never written). Counts one read.
    @raise Spine_error.Error ([Corrupt]) when checksums are enabled and
    the slot fails validation or is a committed page never written;
    ([Io_failed]) on an OS error or an injected read fault. *)

val write : t -> int -> Bytes.t -> unit
(** [write dev p data] stores a copy of [data] as page [p] (sealed with
    an epoch-stamped checksum trailer when enabled): a {!write_run} of
    one page that raises what that run reports. Counts one write (plus
    sync cost when enabled).
    @raise Invalid_argument if [data] is not exactly one page.
    @raise Spine_error.Error ([Io_failed]) on an OS error or an
    injected write fault. *)

val write_run :
  t -> int -> Bytes.t array -> (unit, int * exn) result
(** [write_run dev p datas] writes [datas.(k)] as page [p + k], in
    order, with one positioned write per contiguous stretch of pages
    instead of one per page.  Each page is counted, charged, traced and
    shown to the fault hook exactly as {!write} would, in the same
    order, so a fault plan or crash point sees a run as the single
    writes it replaces.  [Error (k, e)] when page [p + k]'s write
    raised [e]: pages [p .. p + k - 1] are stored, nothing from [p + k]
    on is.
    @raise Invalid_argument if a buffer is not exactly one page. *)

(** {2 Epochs — crash-consistency support}

    Checksummed pages are stamped with the device's current epoch.  A
    transaction layer (see {!Spine.Persistent}) commits by recording an
    epoch ceiling in its metadata and then moving the device to a fresh
    epoch.  On reopen it restores that ceiling via
    {!set_max_valid_epoch}: any page stamped {e beyond} the ceiling can
    only be debris written by a session that crashed before committing,
    and reading it raises [Corrupt] instead of returning phantom data.
    Pages stamped with the {e current} epoch (this session's own
    writes) always validate; a ceiling of [-1] disables the check. *)

val epoch : t -> int
val set_epoch : t -> int -> unit
val set_max_valid_epoch : t -> int -> unit

val set_region_namer : t -> (int -> string) -> unit
(** Name the on-disk region a page belongs to ("lt", "seq", …) for
    [Corrupt] error payloads and scrub reports. Default: ["data"]. *)

val set_committed : t -> (int -> bool) -> unit
(** Name the pages that hold committed data, and so were written
    (default: none).  A never-written slot among them is damage, not a
    hole: {!read} raises [Corrupt] for it instead of returning zeroes,
    and {!verify_page} reports it [`Damaged] — a file cut short or
    holed inside its data fails loudly. *)

(** {2 Fault hooks} *)

type write_fault =
  | Write_through        (** store the page as given *)
  | Tampered of Bytes.t  (** store these physical bytes instead *)
  | Torn of int          (** first [n] physical bytes land, the rest of
                             the slot keeps its previous content *)
  | Dropped              (** silently lose the write *)

type hooks = {
  on_read : page:int -> unit;
      (** called before the media read; may raise to fail it *)
  on_write : page:int -> phys:Bytes.t -> write_fault;
      (** called with the sealed physical image about to be stored *)
}

val set_hooks : t -> hooks option -> unit

val hooks : t -> hooks option
(** The currently installed hooks — what a {e wrapping} injector
    ({!Latency_device}) chains onto so latency and faults compose. *)

(** {2 Raw slot access — preimage-journal support}

    A transaction layer that journals preimages (see
    {!Spine.Persistent}) must copy a physical slot exactly as it sits
    on disk and later put those exact bytes back, preserving the
    original epoch stamp; and its recovery must read journal entries
    whose epochs are deliberately beyond the committed ceiling.  These
    primitives bypass sealing, trailer validation and fault hooks, but
    still pay the normal simulated latency and count in {!stats}. *)

val raw_run : t -> int -> int -> Bytes.t
(** [raw_run dev p n]: the full physical slots of pages
    [p .. p + n - 1] ([phys_size] bytes each: data plus trailer when
    checksummed), unvalidated and zero-filled if never written,
    concatenated, in one positioned read; each slot counts and is
    charged as one raw read. *)

val write_raw_slot : t -> int -> Bytes.t -> unit
(** Store exact physical bytes (no sealing: the slot's trailer is
    whatever the caller provides).
    @raise Invalid_argument if the buffer is not exactly [phys_size]. *)

val read_slot_any : t -> int -> [ `Valid of Bytes.t * int | `Invalid ]
(** [`Valid (data, epoch)] when the slot's trailer checksums correctly
    — {e ignoring} the epoch ceiling, so entries written by a crashed
    session are still readable.  [`Invalid] for holes, damage, or any
    slot of an unchecksummed device. *)

(** {2 Scrub support} *)

val physical_pages : t -> int
(** Number of physical slots the backing store currently covers (file
    size / slot size; max written page + 1 for in-memory devices). *)

val verify_page :
  t -> int ->
  [ `Ok of int | `Unwritten | `Stale of int | `Damaged of string ]
(** Classify one slot without raising: valid (with its epoch), a hole,
    stamped beyond the committed ceiling, or damaged (bad magic /
    checksum mismatch / data without a trailer).  Always [`Ok 0] on an
    unchecksummed device.  Bypasses the read counters and hooks. *)

type stats = {
  reads : int;
  writes : int;
  sequential : int;   (** accesses that hit the sequential fast path *)
  elapsed_us : float; (** accumulated simulated latency *)
}

val stats : t -> stats
val reset_stats : t -> unit

val pages_allocated : t -> int
(** Number of distinct pages ever written. *)

val written : t -> int -> bool
(** Whether page [p] was written through this device. *)
