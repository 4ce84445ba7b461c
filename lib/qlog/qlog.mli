(** Structured query log: an opt-in, append-only JSONL record of every
    Engine request the process serves.

    Enabled by pointing [SPINE_QLOG] at a file path (or calling
    {!set_path}); with no path every {!emit} is a no-op.  Each record is
    one JSON line:

    {v
    {"qlog":1,"seq":0,"offset_ns":0,"op":"single","backend":"disk",
     "patterns":["acgt"],"pattern_len":4,"pattern_hash":"<16 hex>",
     "hits":1,"found":3,"latency_ns":48211,"costs":{...}}
    v}

    where [seq] is the per-sink sequence number, [offset_ns] the
    monotonic arrival offset from the sink's first record, [op] one of
    ["single"]/["batch"]/["cursor"], [hits] the number of patterns with
    at least one occurrence, [found] the total occurrences reported,
    [pattern_hash] the FNV-1a 64-bit hash of the patterns, and [costs]
    the {!Profile.fields} of the request's execution profile.

    The log is size-capped: when appending a record would push the file
    past the cap ([SPINE_QLOG_MAX_BYTES], default 16 MiB), the current
    file is rotated to [path ^ ".1"] (replacing any previous rotation)
    and a fresh file is started.

    The sink is process-global and mutex-guarded: concurrent domains
    interleave whole records, never bytes.  [spine replay] re-drives a
    recorded log through the workload runner ({!Replay}). *)

type record = {
  q_seq : int;
  q_offset_ns : int;       (** monotonic offset from the log's start *)
  q_op : string;           (** "single" | "batch" | "cursor" *)
  q_backend : string;
  q_patterns : string list;
  q_hits : int;            (** patterns with >= 1 occurrence *)
  q_found : int;           (** total occurrences reported *)
  q_latency_ns : int;
  q_costs : (string * int) list;  (** {!Profile.fields} of the request *)
}

val active : unit -> bool
(** Whether a sink path is configured (via [SPINE_QLOG] or
    {!set_path}). *)

val set_path : string option -> unit
(** Redirect the sink: closes any open log file, resets the sequence
    number and arrival clock, and starts logging to the new path
    ([None] disables logging).  Appends if the file exists. *)

val emit :
  op:string ->
  backend:string ->
  patterns:string list ->
  hits:int ->
  found:int ->
  latency_ns:int ->
  costs:Profile.t ->
  unit
(** Append one record (no-op when inactive).  Flushes per record so a
    crashed process loses at most the record being written. *)

val read_file : path:string -> (record list, string) result
(** Parse a qlog file back into records, in file order.  [Error]
    describes the first malformed line (bad JSON, wrong [qlog] version,
    missing field) with its line number; blank lines are skipped. *)
