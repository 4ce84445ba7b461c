(** The page layout of a persistent index file: every page region, in
    page order, declared once (docs/ROBUSTNESS.md, "Region table",
    shows it).

    The metadata area comes first (the two shadow slots and the
    epoch-declaration page), then the Link Table and RT1..RT4, each in
    its own data region, then one region the sequence mirror and the
    side log share, then the preimage journal.  Region names, the scrub
    walk, the debris erase on reopen and the journal's committed bounds
    all derive from {!regions}.  Page numbers are logical pages, the
    same at any page size. *)

type table = Lt | Rt of int | Seq | Side of int  (** the side log's half *)

type region = {
  name : string;
  first : int;  (** first page *)
  span : int;   (** in pages *)
  table : table option;
      (** the byte table the region stores, if any.  Such a region is
          journaled: the preimage journal protects the table's
          committed prefix, the pages below its used bytes at the last
          commit. *)
  stale_ok : bool;
      (** pages stamped beyond the committed ceiling are expected here
          (the declaration page runs one epoch ahead, and journal
          entries only count while their epoch exceeds the ceiling);
          anywhere else such a page is debris from a crashed session *)
}

val slot : int -> region
(** Metadata shadow slot 0 ("meta/slot-a") or 1 ("meta/slot-b"). *)

val epoch : region
(** The epoch-declaration page. *)

val lt : region
val rt : int -> region
(** RT1..RT4 as 0..3. *)

val seq : region
(** The sequence mirror: the packed vertebra codes. *)

val side : int -> region
(** Half 0 ("side/a") or 1 ("side/b") of the side log. *)

val journal : region

val regions : region array
(** Every region, in page order. *)

val region_name : int -> string
(** The name of the region holding a page; "meta" or "data" for a page
    between regions. *)

val prefix_pages : page_size:int -> (table -> int) -> int array
(** [prefix_pages ~page_size used]: per region of {!regions}, the pages
    under [used table] bytes (0 for a region without a table). *)

val in_prefix : int array -> int -> bool
(** [in_prefix prefix page]: [page] lies in its region's first
    [prefix.(i)] pages, [prefix] indexed as {!regions}. *)

val table :
  Pagestore.Buffer_pool.t -> ?name:string -> region -> used:int ->
  Pagestore.Paged_bytes.t
(** A byte table over the whole of a region, with [used] bytes already
    allocated, named [name] (default: the region's) in errors. *)

val pin_top_lt : int -> int -> bool
(** [pin_top_lt pages page]: [page] is among the first [pages] LT
    pages — the paper's "retain the top of the Link Table" policy as a
    {!Pagestore.Buffer_pool.create} [~pin] predicate. *)
