type t = { min : int; max : int option }

let make min max =
  if min < 0 then invalid_arg "Cardinality.make: negative minimum";
  (match max with
  | Some m when m < min -> invalid_arg "Cardinality.make: max < min"
  | _ -> ());
  { min; max }

let opt = make 0 (Some 1)
let one = make 1 (Some 1)
let any = make 0 None
let at_least n = make n None
let between lo hi = make lo (Some hi)

let equal a b = a.min = b.min && a.max = b.max

let within_max c n = match c.max with None -> true | Some m -> n <= m
let meets_min c n = n >= c.min

let to_string c =
  match c.max with
  | None -> Printf.sprintf "%d..*" c.min
  | Some m -> Printf.sprintf "%d..%d" c.min m

let pp ppf c = Fmt.string ppf (to_string c)
