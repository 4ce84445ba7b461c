let need x = x
let spare x = x
