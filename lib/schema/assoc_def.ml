type role = { role_name : string; target : string; card : Cardinality.t }

type attr = { attr_name : string; attr_type : Value_type.t; required : bool }

type t = {
  name : string;
  roles : role list;
  attrs : attr list;
  acyclic : bool;
  super : string option;
  covering : bool;
  procedures : string list;
}

let role ?(card = Cardinality.any) role_name target =
  { role_name; target; card }

let attr ?(required = false) attr_name attr_type =
  { attr_name; attr_type; required }

let v ?(attrs = []) ?(acyclic = false) ?super ?(covering = false)
    ?(procedures = []) name roles =
  if List.length roles < 2 then
    invalid_arg ("Assoc_def.v: association " ^ name ^ " needs at least 2 roles");
  let names = List.map (fun r -> r.role_name) roles in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg ("Assoc_def.v: duplicate role names in " ^ name);
  let anames = List.map (fun a -> a.attr_name) attrs in
  if List.length (List.sort_uniq String.compare anames) <> List.length anames
  then invalid_arg ("Assoc_def.v: duplicate attribute names in " ^ name);
  { name; roles; attrs; acyclic; super; covering; procedures }

let arity a = List.length a.roles

let role_position a n =
  let rec go i = function
    | [] -> None
    | r :: _ when String.equal r.role_name n -> Some i
    | _ :: rs -> go (i + 1) rs
  in
  go 0 a.roles

let nth_role a i = List.nth a.roles i
