type component = { name : string; index : int option }

type t = component list

let parent = function
  | [] | [ _ ] -> None
  | p -> Some (List.filteri (fun i _ -> i < List.length p - 1) p)

let last = function
  | [] -> invalid_arg "Path.last: empty path"
  | p -> List.nth p (List.length p - 1)

let component_to_string c =
  match c.index with
  | None -> c.name
  | Some i -> Printf.sprintf "%s[%d]" c.name i

let to_string p = String.concat "." (List.map component_to_string p)

let parse_component s =
  let invalid () =
    Seed_error.fail (Seed_error.Invalid_operation ("malformed path component: " ^ s))
  in
  if String.equal s "" then invalid ()
  else
    match String.index_opt s '[' with
    | None ->
      if String.contains s ']' then invalid ()
      else Ok { name = s; index = None }
    | Some i ->
      if i = 0 || not (String.length s > i + 1 && s.[String.length s - 1] = ']')
      then invalid ()
      else
        let name = String.sub s 0 i in
        let digits = String.sub s (i + 1) (String.length s - i - 2) in
        (match int_of_string_opt digits with
        | Some idx when idx >= 0 -> Ok { name; index = Some idx }
        | Some _ | None -> invalid ())

let of_string s =
  if String.equal s "" then
    Seed_error.fail (Seed_error.Invalid_operation "empty path")
  else
    Seed_error.map_result parse_component (String.split_on_char '.' s)
