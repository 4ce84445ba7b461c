type field = {
  name : string;
  bytes : float;
  count : int;
}

let naive_node_fields alphabet =
  let rib_slots = Bioseq.Alphabet.size alphabet - 1 in
  [ { name = "CharacterLabel";
      bytes = float_of_int (Bioseq.Alphabet.payload_bits alphabet) /. 8.0;
      count = 1 }
  ; { name = "Vertebra Dest"; bytes = 4.0; count = 1 }
  ; { name = "Link Dest"; bytes = 4.0; count = 1 }
  ; { name = "Link LEL"; bytes = 4.0; count = 1 }
  ; { name = "Rib Dest"; bytes = 4.0; count = rib_slots }
  ; { name = "Rib PT"; bytes = 4.0; count = rib_slots }
  ; { name = "ExtRib Dest"; bytes = 4.0; count = 1 }
  ; { name = "ExtRib PT"; bytes = 4.0; count = 1 }
  ; { name = "ExtRib PRT"; bytes = 4.0; count = 1 }
  ]

let naive_node_bytes alphabet =
  List.fold_left
    (fun acc f -> acc +. (f.bytes *. float_of_int f.count))
    0.0 (naive_node_fields alphabet)
