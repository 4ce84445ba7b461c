(* SPINE is "general in its applicability" (Section 5): index plain
   text over the byte alphabet — here, this repository's own README —
   and drive the streaming cursor the way a database LIKE-operator
   would, feeding characters one at a time.

     dune exec examples/text_search.exe
*)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let () =
  let path =
    (* run from the repo root via dune exec; fall back to a built-in
       snippet elsewhere *)
    if Sys.file_exists "README.md" then "README.md"
    else if Sys.file_exists "../README.md" then "../README.md"
    else ""
  in
  let text =
    if path = "" then
      "SPINE consists of a backbone formed by a linear chain of nodes \
       representing the underlying string, with the nodes connected by \
       a rich set of edges for fast forward and backward traversals."
    else read_file path
  in
  let e = Spine.Compact.engine (Spine.Compact.of_string Bioseq.Alphabet.byte text) in
  Printf.printf "indexed %s (%d bytes) -> %d nodes\n"
    (if path = "" then "built-in snippet" else path)
    (String.length text) (Spine.Engine.node_count e);

  (* word queries through the engine *)
  List.iter
    (fun word ->
      let p = Option.get (Spine.Engine.pattern_of_string e word) in
      Printf.printf "%-12s %d occurrence(s)\n" word
        (List.length (Spine.Engine.occurrences_pattern e p)))
    [ "SPINE"; "suffix"; "backbone"; "zebra" ];

  (* streaming: feed a noisy "query document" through the cursor and
     report the longest region it shares with the indexed text — no
     per-character restart from the root *)
  let query = "the paper's backbone formed by a linear chain of springs" in
  let cursor = Spine.Engine.cursor e in
  let best = ref (0, 0) in
  String.iteri
    (fun i ch ->
      cursor.Spine.Engine.longest_extension (Char.code ch);
      let len = cursor.Spine.Engine.length () in
      if len > fst !best then best := (len, i))
    query;
  let len, at = !best in
  Printf.printf
    "longest shared region with %S: %d chars, ending at query offset %d:\n"
    query len at;
  Printf.printf "  %S\n" (String.sub query (at - len + 1) len);
  (match
     (* reposition the cursor on that best match to list where it is in
        the text *)
     let c2 = Spine.Engine.cursor e in
     String.iter
       (fun ch -> ignore (c2.Spine.Engine.advance_char ch))
       (String.sub query (at - len + 1) len);
     c2.Spine.Engine.occurrences ()
   with
   | [] -> ()
   | ps ->
     Printf.printf "  found in the text at byte offset(s): %s\n"
       (String.concat ", " (List.map string_of_int ps)))
