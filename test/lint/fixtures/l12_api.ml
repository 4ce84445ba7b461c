let used x = x + 1
let unused x = x - 1
let for_tests x = x * 2
let waived x = x
