(* L12 fixture: the test side (a [test_*] unit). *)

let check = L12_api.for_tests 3
