(** Structural statistics of a SPINE index.

    These back the paper's Table 3 (maximum numeric label values),
    Table 4 (rib-fanout distribution across nodes) and Figure 8
    (distribution of link destinations along the backbone). *)

(* Store-independent result records, defined once (see Matcher for the
   same pattern on the matching side). *)

type label_maxima = {
  max_pt : int;    (** over ribs and extribs *)
  max_lel : int;   (** over links *)
  max_prt : int;   (** over extribs *)
}

type edge_counts = {
  vertebras : int;
  ribs : int;
  extribs : int;
  links : int;
}

module type S = sig
  type store

  val label_maxima : store -> label_maxima
  val rib_distribution : store -> int array
  val edge_counts : store -> edge_counts
  val link_histogram : store -> buckets:int -> int array
end

module Make (S : Store_sig.S) = struct
  type store = S.t

  let label_maxima t =
    let n = S.length t in
    let max_pt = ref 0 and max_lel = ref 0 and max_prt = ref 0 in
    for node = 0 to n do
      if node >= 1 then begin
        let lel = S.link_lel t node in
        if lel > !max_lel then max_lel := lel
      end;
      S.fold_ribs t node ~init:() ~f:(fun () _code _dest pt ->
          if pt > !max_pt then max_pt := pt);
      match S.find_extrib t node with
      | Some (_, pt, prt, _) ->
        if pt > !max_pt then max_pt := pt;
        if prt > !max_prt then max_prt := prt
      | None -> ()
    done;
    { max_pt = !max_pt; max_lel = !max_lel; max_prt = !max_prt }

  (* counts.(k) = number of nodes with exactly k downstream edges
     (ribs + extrib, vertebras excluded), k = 0 .. alphabet size + 1 *)
  let rib_distribution t =
    let n = S.length t in
    let max_fanout = Bioseq.Alphabet.size (S.alphabet t) + 1 in
    let counts = Array.make (max_fanout + 1) 0 in
    for node = 0 to n do
      let ribs =
        S.fold_ribs t node ~init:0 ~f:(fun acc _ _ _ -> acc + 1)
      in
      let fanout =
        ribs + (match S.find_extrib t node with Some _ -> 1 | None -> 0)
      in
      let fanout = Int.min fanout max_fanout in
      counts.(fanout) <- counts.(fanout) + 1
    done;
    counts

  let edge_counts t =
    let n = S.length t in
    let ribs = ref 0 and extribs = ref 0 in
    for node = 0 to n do
      ribs := S.fold_ribs t node ~init:!ribs ~f:(fun acc _ _ _ -> acc + 1);
      if Option.is_some (S.find_extrib t node) then incr extribs
    done;
    { vertebras = n; ribs = !ribs; extribs = !extribs; links = n }

  (* Histogram of link destinations over [buckets] equal slices of the
     backbone: Figure 8's evidence that links point overwhelmingly to
     the top of the structure. *)
  let link_histogram t ~buckets =
    if buckets < 1 then invalid_arg "Stats.link_histogram";
    let n = S.length t in
    let counts = Array.make buckets 0 in
    if n > 0 then
      for node = 1 to n do
        let d = S.link_dest t node in
        let b = Int.min (buckets - 1) (d * buckets / (n + 1)) in
        counts.(b) <- counts.(b) + 1
      done;
    counts
end
