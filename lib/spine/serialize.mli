(** Binary snapshots of an in-memory ({!Compact}) SPINE index.

    A SPINE index is fully determined by its vertebra labels (the data
    string), links, ribs and extribs; this module writes them in a
    compact little-endian format and reads them back without
    re-running construction: loading replays the records into a fresh
    {!Compact_store}.  The format is self-describing (magic, version,
    alphabet) and ends with a whole-snapshot CRC-32C, so a flipped bit
    anywhere in the image is rejected before any of it is decoded.
    The CLI's [spine build] writes it and [-i FILE] reads it; the paged
    backends keep their own file format ({!Persistent}).

    Version history: v3 (current) stores the sequence as the packed
    row's raw words; v2 packed it at [Alphabet.bits] bits per symbol
    and added the trailing checksum; v1 images — v2's record layout,
    no trailer — still load, without the whole-image integrity cover,
    and must consume their input exactly (so a v2 image whose version
    byte is corrupted cannot sneak past the CRC as v1).  All three
    load. *)

val to_bytes : Compact.t -> Bytes.t

val of_bytes : Bytes.t -> Compact.t
(** @raise Spine_error.Error ([Corrupt], region ["snapshot"]) on bad
    magic, unsupported version, checksum mismatch, truncation or a
    structurally impossible record (one off the backbone, or a second
    rib under one label or extrib at one node); the payload's [page]
    field carries the byte offset of the failure where applicable. *)

val to_file : string -> Compact.t -> unit

val of_file : string -> Compact.t
(** @raise Spine_error.Error as {!of_bytes}, plus [Io_failed] when the
    file cannot be read. *)

val header_size : int
(** Fixed bytes before the payload; exposed for format tests. *)

val trailer_size : int
(** Bytes of the trailing whole-snapshot checksum. *)
