type t = int

let compare = Int.compare
let equal = Int.equal
let hash = Hashtbl.hash
let to_string i = "#" ^ string_of_int i
let pp ppf i = Fmt.string ppf (to_string i)
let to_int i = i
let of_int i = i

module Gen = struct
  type t = { mutable last : int }

  let create () = { last = 0 }

  let next g =
    g.last <- g.last + 1;
    g.last

  let mark_used g id = if id > g.last then g.last <- id
  let current g = g.last
end

module Map = Map.Make (Int)
module Set = Set.Make (Int)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
