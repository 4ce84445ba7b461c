(** JSON text helpers shared by every JSON-lines exporter. *)

val escape : string -> string
(** [escape s] is [s] ready to sit between double quotes in a JSON
    string: double quotes and backslashes get a backslash, and every
    control character below 0x20 becomes a six-character \u00XX
    escape. *)
