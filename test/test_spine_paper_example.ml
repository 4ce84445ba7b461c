(* The paper's running example, string "aaccacaaca" (Figures 3 and the
   Section 3.1 construction walkthrough), checked edge-for-edge against
   the hand-validated construction trace. *)

module I = Spine.Compact
let link t node = Spine.Compact_store.(link_dest t node, link_lel t node)
let rib = Spine.Compact_store.find_rib

(* the extrib without its chain anchor, as Figure 3 labels it *)
let extrib t node =
  Option.map (fun (dest, pt, prt, _anchor) -> (dest, pt, prt))
    (Spine.Compact_store.find_extrib t node)
module E = Spine.Engine

let dna_like = Bioseq.Alphabet.make "ac"

let build () = I.of_string dna_like "aaccacaaca"
let engine () = I.engine (build ())

let a = 0 and c = 1

let test_links () =
  let t = build () in
  (* (node, dest, lel), derived by hand and cross-checked against every
     explicit value in the paper: link 2->1 LEL 1 (CASE 1 example),
     link 3->0 LEL 0 (CASE 3), link 4->3 LEL 1 (CASE 2), link 7->5
     LEL 2 (CASE 4), link 8->2 LEL 2 (Section 2.1). *)
  let expected =
    [ (1, 0, 0); (2, 1, 1); (3, 0, 0); (4, 3, 1); (5, 1, 1);
      (6, 3, 2); (7, 5, 2); (8, 2, 2); (9, 3, 3); (10, 7, 3) ]
  in
  List.iter
    (fun (node, dest, lel) ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "link of node %d" node)
        (dest, lel) (link t node))
    expected

let test_ribs () =
  let t = build () in
  (* every rib in Figure 3: source, code, dest, PT. "The rib from Node 3
     has a PT of 1" is the (3, a, 5, 1) entry. *)
  let expected =
    [ (1, c, 3, 1); (0, c, 3, 0); (3, a, 5, 1); (5, a, 8, 2) ]
  in
  List.iter
    (fun (node, code, dest, pt) ->
      Alcotest.(check (option (pair int int)))
        (Printf.sprintf "rib (%d, %d)" node code)
        (Some (dest, pt)) (rib t node code))
    expected;
  (* and no others *)
  let total =
    List.fold_left
      (fun acc node ->
        List.fold_left
          (fun acc code -> if rib t node code <> None then acc + 1 else acc)
          acc [ a; c ])
      0
      [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
  in
  Alcotest.(check int) "rib count" 4 total

let test_extribs () =
  let t = build () in
  (* "the extrib from Node 5 to Node 7 has a PRT of 1 and PT of 2" and
     its chain continuation created when appending the final character *)
  Alcotest.(check (option (triple int int int))) "extrib at 5"
    (Some (7, 2, 1)) (extrib t 5);
  Alcotest.(check (option (triple int int int))) "extrib at 7"
    (Some (10, 3, 1)) (extrib t 7);
  List.iter
    (fun node ->
      Alcotest.(check (option (triple int int int)))
        (Printf.sprintf "no extrib at %d" node) None (extrib t node))
    [ 0; 1; 2; 3; 4; 6; 8; 9; 10 ]

let test_node_and_edge_counts () =
  let e = engine () in
  Alcotest.(check int) "nodes" 11 (E.node_count e);
  let { E.vertebras; ribs; extribs; links } = E.edge_counts e in
  (* "it has 11 nodes and 26 edges" *)
  Alcotest.(check int) "total edges" 26 (vertebras + ribs + extribs + links);
  Alcotest.(check int) "vertebras" 10 vertebras;
  Alcotest.(check int) "ribs" 4 ribs;
  Alcotest.(check int) "extribs" 2 extribs;
  Alcotest.(check int) "links" 10 links

let test_false_positive_rejected () =
  let e = engine () in
  (* Section 2.1/4: "accaa" appears to have a path but the PT labels
     must reject it *)
  Alcotest.(check bool) "accaa rejected" false
    (Codes.contains_string e "accaa");
  Alcotest.(check bool) "acca accepted" true (Codes.contains_string e "acca")

let test_all_occurrences_example () =
  let e = engine () in
  (* Section 4's worked example: searching "ac" fills the target node
     buffer with nodes 3, 6, 9, each the end of one occurrence *)
  Alcotest.(check (list int)) "end nodes of ac" [ 3; 6; 9 ]
    (List.map (fun start -> start + 2) (Codes.occurrences e [| a; c |]));
  Alcotest.(check (list int)) "start positions of ac" [ 1; 4; 7 ]
    (Codes.occurrences e [| a; c |])

let test_every_substring_present () =
  let e = engine () in
  let s = "aaccacaaca" in
  for i = 0 to String.length s - 1 do
    for len = 1 to String.length s - i do
      let sub = String.sub s i len in
      if not (Codes.contains_string e sub) then Alcotest.failf "missing %S" sub
    done
  done

let test_no_false_positives_exhaustive () =
  let e = engine () in
  let s = "aaccacaaca" in
  (* enumerate ALL strings over {a, c} up to length 6 and compare the
     membership decision with the oracle *)
  let rec strings len =
    if len = 0 then [ "" ]
    else
      List.concat_map (fun w -> [ w ^ "a"; w ^ "c" ]) (strings (len - 1))
  in
  List.iter
    (fun pat ->
      if pat <> "" then
        Alcotest.(check bool) (Printf.sprintf "membership of %S" pat)
          (Oracles.contains s pat) (Codes.contains_string e pat))
    (strings 6)

let suite =
  [ Alcotest.test_case "links of Figure 3" `Quick test_links
  ; Alcotest.test_case "ribs of Figure 3" `Quick test_ribs
  ; Alcotest.test_case "extribs of Figure 3" `Quick test_extribs
  ; Alcotest.test_case "11 nodes, 26 edges" `Quick test_node_and_edge_counts
  ; Alcotest.test_case "accaa false positive rejected" `Quick
      test_false_positive_rejected
  ; Alcotest.test_case "target node buffer for 'ac'" `Quick
      test_all_occurrences_example
  ; Alcotest.test_case "every substring present" `Quick
      test_every_substring_present
  ; Alcotest.test_case "exhaustive membership up to length 6" `Quick
      test_no_false_positives_exhaustive
  ]
