let shared = 1
let probe () = shared
