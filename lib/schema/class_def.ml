type t = {
  path : string list;
  card : Cardinality.t;
  content : Value_type.t option;
  super : string option;
  covering : bool;
  procedures : string list;
}

let v ?(card = Cardinality.any) ?content ?super ?(covering = false)
    ?(procedures = []) path =
  if path = [] then invalid_arg "Class_def.v: empty path";
  { path; card; content; super; covering; procedures }

let name c = String.concat "." c.path

let simple_name c = List.nth c.path (List.length c.path - 1)

let is_top_level c = List.length c.path = 1

let parent_name c =
  match c.path with
  | [] | [ _ ] -> None
  | p -> Some (String.concat "." (List.filteri (fun i _ -> i < List.length p - 1) p))
