let key = 1
let extra = 2
