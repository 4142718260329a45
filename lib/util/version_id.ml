type t = int list

let trunk m =
  if m < 1 then invalid_arg "Version_id.trunk: major must be >= 1";
  [ m; 0 ]

let is_trunk = function [ _; 0 ] -> true | _ -> false

let major = function
  | [] -> invalid_arg "Version_id.major: empty label"
  | m :: _ -> m

let child l k =
  if k < 1 then invalid_arg "Version_id.child: index must be >= 1";
  match l with [ m; 0 ] -> [ m; k ] | _ -> l @ [ k ]

let compare = List.compare Int.compare
let equal a b = compare a b = 0

let to_string l = String.concat "." (List.map string_of_int l)
let pp ppf l = Fmt.string ppf (to_string l)

let validate l =
  if l = [] || List.exists (fun c -> c < 0) l then
    Seed_error.fail (Seed_error.Unknown_version (to_string l))
  else Ok l

let of_ints = validate

let of_string s =
  let parts = String.split_on_char '.' s in
  let ints = List.map int_of_string_opt parts in
  if List.exists Option.is_none ints then
    Seed_error.fail (Seed_error.Unknown_version s)
  else validate (List.map Option.get ints)

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)
