open Seed_util
open Seed_error

(* ------------------------------------------------------------------ *)
(* Parser                                                               *)
(* ------------------------------------------------------------------ *)

open Text_lexer

let parse_card st =
  (* "[" INT ".." (INT | "*") "]" *)
  let* () = expect st LBRACKET "'['" in
  let* lo = int st "a minimum bound" in
  let* () = expect st DOTDOT "'..'" in
  let* hi =
    match peek st with
    | INT n ->
      advance st;
      Ok (Some n)
    | STAR ->
      advance st;
      Ok None
    | _ -> unexpected st "a maximum bound or '*'"
  in
  let* () = expect st RBRACKET "']'" in
  match hi with
  | Some h when h < lo ->
    fail (Invalid_cardinality (Printf.sprintf "%d..%d" lo h))
  | _ -> Ok (Cardinality.make lo hi)

let parse_opt_card st =
  match peek st with
  | LBRACKET ->
    let* c = parse_card st in
    Ok (Some c)
  | _ -> Ok None

let parse_type st =
  let* name = ident st "a value type" in
  match name with
  | "STRING" -> Ok Value_type.String
  | "INT" -> Ok Value_type.Int
  | "FLOAT" -> Ok Value_type.Float
  | "BOOL" -> Ok Value_type.Bool
  | "DATE" -> Ok Value_type.Date
  | "ENUM" ->
    let* cs =
      paren_list st "'(' after ENUM" (fun st -> ident st "an enum constant")
    in
    Ok (Value_type.Enum cs)
  | other ->
    fail (Schema_violation (Printf.sprintf "unknown value type %s" other))

let parse_procedures st =
  if not (eat_keyword st "procedures") then Ok []
  else paren_list st "'('" (fun st -> ident st "a procedure name")

(* members of a class body; [path] is the enclosing class path *)
let rec parse_members st ~path acc =
  match peek st with
  | RBRACE ->
    advance st;
    Ok (List.rev acc)
  | IDENT _ ->
    let* name = ident st "a member name" in
    let* content =
      match peek st with
      | COLON ->
        advance st;
        let* ty = parse_type st in
        Ok (Some ty)
      | _ -> Ok None
    in
    let* card = parse_opt_card st in
    let card = Option.value card ~default:Cardinality.any in
    let* procedures = parse_procedures st in
    let member_path = path @ [ name ] in
    let def = Class_def.v ~card ?content ~procedures member_path in
    let* nested =
      match peek st with
      | LBRACE ->
        advance st;
        parse_members st ~path:member_path []
      | _ -> Ok []
    in
    parse_members st ~path (List.rev_append (def :: nested) acc)
  | _ -> unexpected st "a member name or '}'"

let parse_class st =
  let* name = ident st "a class name" in
  let* super =
    if eat_keyword st "isa" then
      let* s = ident st "a super class" in
      Ok (Some s)
    else Ok None
  in
  let covering = eat_keyword st "covering" in
  let* procedures = parse_procedures st in
  let def = Class_def.v ?super ~covering ~procedures [ name ] in
  match peek st with
  | LBRACE ->
    advance st;
    let* members = parse_members st ~path:[ name ] [] in
    Ok (def :: members)
  | _ -> Ok [ def ]

let parse_role st =
  let* role_name = ident st "a role name" in
  let* () = expect st COLON "':'" in
  let* target = ident st "a target class" in
  let* card = parse_opt_card st in
  Ok (Assoc_def.role ~card:(Option.value card ~default:Cardinality.any) role_name target)

let parse_attrs st =
  match peek st with
  | LBRACE ->
    advance st;
    let rec go acc =
      match peek st with
      | RBRACE ->
        advance st;
        Ok (List.rev acc)
      | IDENT _ ->
        let* attr_name = ident st "an attribute name" in
        let* () = expect st COLON "':'" in
        let* ty = parse_type st in
        let required = eat_keyword st "required" in
        go (Assoc_def.attr ~required attr_name ty :: acc)
      | _ -> unexpected st "an attribute or '}'"
    in
    go []
  | _ -> Ok []

let parse_assoc st =
  let* name = ident st "an association name" in
  let* super =
    if eat_keyword st "isa" then
      let* s = ident st "a super association" in
      Ok (Some s)
    else Ok None
  in
  (* acyclic/covering in either order *)
  let acyclic = ref false and covering = ref false in
  let rec flags () =
    if eat_keyword st "acyclic" then begin
      acyclic := true;
      flags ()
    end
    else if eat_keyword st "covering" then begin
      covering := true;
      flags ()
    end
  in
  flags ();
  let* procedures = parse_procedures st in
  let* roles = paren_list st "'(' opening the role list" parse_role in
  let* attrs = parse_attrs st in
  if List.length roles < 2 then
    fail (Schema_violation (name ^ ": associations need at least two roles"))
  else
    Ok
      (Assoc_def.v ~attrs ~acyclic:!acyclic ?super ~covering:!covering
         ~procedures name roles)

let parse src =
  let* st = of_string ~error:(fun msg -> Schema_violation msg) src in
  let rec go classes assocs =
    if peek st = EOF then Ok (List.rev classes, List.rev assocs)
    else if eat_keyword st "class" then
      let* defs = parse_class st in
      go (List.rev_append defs classes) assocs
    else if eat_keyword st "assoc" then
      let* a = parse_assoc st in
      go classes (a :: assocs)
    else unexpected st "'class' or 'assoc'"
  in
  let* classes, assocs = go [] [] in
  Schema.of_defs classes assocs

(* ------------------------------------------------------------------ *)
(* Printer                                                              *)
(* ------------------------------------------------------------------ *)

let print_card buf (c : Cardinality.t) =
  if not (Cardinality.equal c Cardinality.any) then
    Buffer.add_string buf (Printf.sprintf " [%s]" (Cardinality.to_string c))

let print_procedures buf = function
  | [] -> ()
  | ps -> Buffer.add_string buf (Printf.sprintf " procedures (%s)" (String.concat ", " ps))

let rec print_members schema buf indent cls_name =
  let children = Schema.own_children schema cls_name in
  List.iter
    (fun (c : Class_def.t) ->
      Buffer.add_string buf (String.make indent ' ');
      Buffer.add_string buf (Class_def.simple_name c);
      (match c.Class_def.content with
      | Some ty -> Buffer.add_string buf (" : " ^ Value_type.to_string ty)
      | None -> ());
      print_card buf c.Class_def.card;
      print_procedures buf c.Class_def.procedures;
      let name = Class_def.name c in
      if Schema.own_children schema name <> [] then begin
        Buffer.add_string buf " {\n";
        print_members schema buf (indent + 2) name;
        Buffer.add_string buf (String.make indent ' ');
        Buffer.add_string buf "}\n"
      end
      else Buffer.add_char buf '\n')
    children

let print schema =
  let buf = Buffer.create 512 in
  List.iter
    (fun (c : Class_def.t) ->
      Buffer.add_string buf ("class " ^ Class_def.name c);
      (match c.Class_def.super with
      | Some s -> Buffer.add_string buf (" isa " ^ s)
      | None -> ());
      if c.Class_def.covering then Buffer.add_string buf " covering";
      print_procedures buf c.Class_def.procedures;
      if Schema.own_children schema (Class_def.name c) <> [] then begin
        Buffer.add_string buf " {\n";
        print_members schema buf 2 (Class_def.name c);
        Buffer.add_string buf "}\n"
      end
      else Buffer.add_char buf '\n')
    (Schema.top_level_classes schema);
  Buffer.add_char buf '\n';
  List.iter
    (fun (a : Assoc_def.t) ->
      Buffer.add_string buf ("assoc " ^ a.Assoc_def.name);
      (match a.Assoc_def.super with
      | Some s -> Buffer.add_string buf (" isa " ^ s)
      | None -> ());
      if a.Assoc_def.acyclic then Buffer.add_string buf " acyclic";
      if a.Assoc_def.covering then Buffer.add_string buf " covering";
      print_procedures buf a.Assoc_def.procedures;
      Buffer.add_string buf " (";
      Buffer.add_string buf
        (String.concat ", "
           (List.map
              (fun (r : Assoc_def.role) ->
                let b = Buffer.create 16 in
                Buffer.add_string b (r.Assoc_def.role_name ^ " : " ^ r.Assoc_def.target);
                print_card b r.Assoc_def.card;
                Buffer.contents b)
              a.Assoc_def.roles));
      Buffer.add_char buf ')';
      (match a.Assoc_def.attrs with
      | [] -> Buffer.add_char buf '\n'
      | attrs ->
        Buffer.add_string buf " {\n";
        List.iter
          (fun (x : Assoc_def.attr) ->
            Buffer.add_string buf
              (Printf.sprintf "  %s : %s%s\n" x.Assoc_def.attr_name
                 (Value_type.to_string x.Assoc_def.attr_type)
                 (if x.Assoc_def.required then " required" else "")))
          attrs;
        Buffer.add_string buf "}\n"))
    (Schema.assocs schema);
  Buffer.contents buf
