(* The streaming cursor: state after arbitrary advance/drop_front
   sequences must describe exactly the explicit character window, with
   the node at the window's first-occurrence end. *)

module E = Spine.Engine

let byte = Bioseq.Alphabet.byte

let cursor_over s = E.cursor (Spine.Compact.engine (Spine.Compact.of_string byte s))

let codes_of s = Array.init (String.length s) (fun i -> Char.code s.[i])

(* explicit reference window *)
type model = { mutable buf : string }

let check_against_oracle s cursor model =
  let w = model.buf in
  Alcotest.(check int) (Printf.sprintf "length of %S" w) (String.length w)
    (cursor.E.length ());
  if w = "" then Alcotest.(check int) "root" 0 (cursor.E.node ())
  else begin
    match Oracles.first_occurrence s w with
    | None -> Alcotest.failf "model window %S not a substring of %S" w s
    | Some p ->
      Alcotest.(check (option int)) (Printf.sprintf "first occ of %S" w)
        (Some p) (cursor.E.first_occurrence ());
      Alcotest.(check int) "node" (p + String.length w)
        (cursor.E.node ())
  end

let test_random_walks () =
  let rng = Bioseq.Rng.create 111 in
  for _ = 1 to 25 do
    let s = Oracles.random_string rng 3 (20 + Bioseq.Rng.int rng 120) in
    let cursor = cursor_over s in
    let model = { buf = "" } in
    for _ = 1 to 150 do
      match Bioseq.Rng.int rng 3 with
      | 0 | 1 ->
        (* try to advance with a random character *)
        let ch = Char.chr (Char.code 'a' + Bioseq.Rng.int rng 3) in
        let expected = Oracles.contains s (model.buf ^ String.make 1 ch) in
        let ok = cursor.E.advance_char ch in
        Alcotest.(check bool)
          (Printf.sprintf "advance %C after %S" ch model.buf) expected ok;
        if ok then model.buf <- model.buf ^ String.make 1 ch;
        check_against_oracle s cursor model
      | _ ->
        if model.buf <> "" then begin
          cursor.E.drop_front ();
          model.buf <- String.sub model.buf 1 (String.length model.buf - 1);
          check_against_oracle s cursor model
        end
    done
  done

let test_longest_extension_is_matching_statistics () =
  let rng = Bioseq.Rng.create 112 in
  for _ = 1 to 20 do
    let s = Oracles.random_string rng 3 (20 + Bioseq.Rng.int rng 100) in
    let q = Oracles.random_string rng 3 (10 + Bioseq.Rng.int rng 60) in
    let cursor = cursor_over s in
    let ms = Oracles.matching_statistics s q in
    String.iteri
      (fun i ch ->
        cursor.E.longest_extension (Char.code ch);
        Alcotest.(check int)
          (Printf.sprintf "ms at %d of %S vs %S" i q s)
          ms.(i) (cursor.E.length ()))
      q
  done

let test_occurrences_at_cursor () =
  let s = "aaccacaaca" in
  let cursor = cursor_over s in
  Alcotest.(check (list int)) "empty match" [] (cursor.E.occurrences ());
  assert (cursor.E.advance_char 'a');
  assert (cursor.E.advance_char 'c');
  Alcotest.(check (list int)) "ac occurrences" [ 1; 4; 7 ]
    (cursor.E.occurrences ());
  cursor.E.drop_front ();
  Alcotest.(check (list int)) "c occurrences"
    (Oracles.occurrences s "c") (cursor.E.occurrences ());
  cursor.E.reset ();
  Alcotest.(check int) "reset" 0 (cursor.E.length ())

let test_errors () =
  let cursor = cursor_over "abc" in
  Alcotest.check_raises "drop on empty"
    (Invalid_argument "Cursor.drop_front: empty match") (fun () ->
      cursor.E.drop_front ());
  Alcotest.(check bool) "advance outside alphabet is false (byte alphabet \
                         accepts all chars, so use a missing char)" false
    (cursor.E.advance_char 'z')

let suite =
  [ Alcotest.test_case "random advance/drop walks vs oracle" `Quick
      test_random_walks
  ; Alcotest.test_case "longest_extension = matching statistics" `Quick
      test_longest_extension_is_matching_statistics
  ; Alcotest.test_case "occurrences at the cursor" `Quick
      test_occurrences_at_cursor
  ; Alcotest.test_case "error handling" `Quick test_errors
  ]
