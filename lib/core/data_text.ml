open Seed_util
open Seed_schema
open Seed_error

(* ------------------------------------------------------------------ *)
(* Export                                                               *)
(* ------------------------------------------------------------------ *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* a name that does not lex as one identifier is written as a string *)
let render_name n = if Text_lexer.is_ident n then n else escape_string n

let render_value = function
  | Value.String s -> escape_string s
  | Value.Int i -> string_of_int i
  | Value.Float f -> Printf.sprintf "%h" f
  | Value.Bool b -> string_of_bool b
  | Value.Date d -> Printf.sprintf "%04d-%02d-%02d" d.Value.year d.Value.month d.Value.day
  | Value.Enum c -> c

let rec export_subs v buf indent (it : Item.t) =
  let pad = String.make indent ' ' in
  List.iter
    (fun (kid : Item.t) ->
      Buffer.add_string buf (pad ^ Item.component kid);
      (match View.obj_state v kid with
      | Some { Item.value = Some value; _ } ->
        Buffer.add_string buf (" = " ^ render_value value)
      | Some _ | None -> ());
      if View.children v kid.Item.id = [] then Buffer.add_char buf '\n'
      else begin
        Buffer.add_string buf " {\n";
        export_subs v buf (indent + 2) kid;
        Buffer.add_string buf (pad ^ "}\n")
      end)
    (View.children v it.Item.id)

let export_object v buf ~pattern (it : Item.t) =
  let name =
    match View.full_name v it with
    | Some n -> n
    | None -> Ident.to_string it.Item.id
  in
  let cls = Option.value (View.class_path_of v it) ~default:"?" in
  Buffer.add_string buf (if pattern then "pattern " else "object ");
  Buffer.add_string buf (Printf.sprintf "%s : %s" (render_name name) cls);
  (match View.obj_state v it with
  | Some { Item.value = Some value; _ } ->
    Buffer.add_string buf (" = " ^ render_value value)
  | Some _ | None -> ());
  let inherits =
    View.inherits_of v it
    |> List.filter_map (fun pid ->
           match Db_state.find_item (View.db v) pid with
           | Some p when View.live_pattern v p ->
             Option.map render_name (View.full_name v p)
           | Some _ | None -> None)
  in
  if inherits <> [] then
    Buffer.add_string buf
      (Printf.sprintf " inherits (%s)" (String.concat ", " inherits));
  if View.children v it.Item.id <> [] then begin
    Buffer.add_string buf " {\n";
    export_subs v buf 2 it;
    Buffer.add_string buf "}\n"
  end
  else Buffer.add_char buf '\n'

let by_name v (a : Item.t) (b : Item.t) =
  compare (View.full_name v a) (View.full_name v b)

let endpoint_name v e =
  match Db_state.find_item (View.db v) e with
  | Some it -> Option.value (View.full_name v it) ~default:(Ident.to_string e)
  | None -> Ident.to_string e

let export_rel v buf ~pattern (rel : Item.t) =
  match View.rel_state v rel with
  | None -> ()
  | Some rs ->
    let names = List.map (fun e -> render_name (endpoint_name v e)) rs.Item.endpoints in
    Buffer.add_string buf
      (Printf.sprintf "%srel %s (%s)"
         (if pattern then "pattern " else "")
         rs.Item.assoc (String.concat ", " names));
    (match
       List.sort (fun (a, _) (b, _) -> String.compare a b) rs.Item.rel_attrs
     with
    | [] -> Buffer.add_char buf '\n'
    | attrs ->
      Buffer.add_string buf " {\n";
      List.iter
        (fun (n, value) ->
          Buffer.add_string buf
            (Printf.sprintf "  %s = %s\n" n (render_value value)))
        attrs;
      Buffer.add_string buf "}\n")

let export_view v =
  let buf = Buffer.create 1024 in
  List.iter
    (export_object v buf ~pattern:false)
    (List.sort (by_name v) (View.all_objects v));
  List.iter
    (export_object v buf ~pattern:true)
    (List.sort (by_name v) (View.all_patterns v));
  Buffer.add_char buf '\n';
  let rels =
    View.all_rels v
    @ Db_state.fold_items (View.db v) ~init:[] ~f:(fun acc it ->
          if it.Item.body = Item.Relationship && View.live_pattern v it then
            it :: acc
          else acc)
  in
  let keyed =
    List.map
      (fun (r : Item.t) ->
        let key =
          match View.rel_state v r with
          | Some rs ->
            ( rs.Item.assoc,
              List.map (endpoint_name v) rs.Item.endpoints,
              rs.Item.rel_pattern )
          | None -> ("", [], false)
        in
        (key, r))
      rels
    |> List.sort compare
  in
  List.iter
    (fun ((_, _, pattern), r) -> export_rel v buf ~pattern r)
    keyed;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parser (to an AST, then replayed)                                    *)
(* ------------------------------------------------------------------ *)

(* A bare word's type depends on the class it lands in: [nan] is a
   float in a FLOAT class and a constant in an ENUM class. Every other
   literal's form fixes its type. *)
type literal = Typed of Value.t | Word of string

type sub_ast = {
  s_role : string;
  s_index : int option;
  s_value : literal option;
  s_children : sub_ast list;
}

type obj_ast = {
  o_name : string;
  o_cls : string;
  o_value : literal option;
  o_pattern : bool;
  o_inherits : string list;
  o_children : sub_ast list;
}

type rel_ast = {
  r_assoc : string;
  r_endpoints : string list;
  r_pattern : bool;
  r_attrs : (string * literal) list;
}

open Text_lexer

let parse_value st =
  let value v =
    advance st;
    Ok (Typed v)
  in
  match peek st with
  | STRING s -> value (Value.String s)
  | FLOAT f -> value (Value.Float f)
  | MINUS -> (
    advance st;
    match peek st with
    | INT n -> value (Value.Int (-n))
    | FLOAT f -> value (Value.Float (-.f))
    | IDENT "infinity" -> value (Value.Float Float.neg_infinity)
    | IDENT "nan" -> value (Value.Float (-.Float.nan))
    | _ -> unexpected st "a number after '-'")
  | INT a -> (
    advance st;
    (* maybe a date: INT-INT-INT *)
    match peek st with
    | MINUS -> (
      advance st;
      let* m = int st "a month" in
      let* () = expect st MINUS "'-' in a date" in
      match peek st with
      | INT d -> (
        (* an impossible date is reported at its line *)
        match Value.date a m d with
        | v ->
          advance st;
          Ok (Typed v)
        | exception Invalid_argument msg -> fail_here st msg)
      | _ -> unexpected st "a day")
    | _ -> Ok (Typed (Value.Int a)))
  | IDENT w ->
    advance st;
    Ok (Word w)
  | _ -> unexpected st "a value"

let parse_opt_value st =
  match peek st with
  | EQUALS ->
    advance st;
    let* v = parse_value st in
    Ok (Some v)
  | _ -> Ok None

let parse_opt_index st =
  match peek st with
  | LBRACKET ->
    advance st;
    let* i = int st "an index" in
    let* () = expect st RBRACKET "']'" in
    Ok (Some i)
  | _ -> Ok None

let rec parse_subs st acc =
  match peek st with
  | RBRACE ->
    advance st;
    Ok (List.rev acc)
  | IDENT _ ->
    let* s_role = ident st "a role" in
    let* s_index = parse_opt_index st in
    let* s_value = parse_opt_value st in
    let* s_children = parse_opt_body st in
    parse_subs st ({ s_role; s_index; s_value; s_children } :: acc)
  | _ -> unexpected st "a role or '}'"

and parse_opt_body st =
  match peek st with
  | LBRACE ->
    advance st;
    parse_subs st []
  | _ -> Ok []

let parse_name_list st = paren_list st "'('" (fun st -> name st "a name")

let parse_object st ~pattern =
  let* o_name = name st "an object name" in
  let* () = expect st COLON "':'" in
  let* o_cls = ident st "a class" in
  let* o_value = parse_opt_value st in
  let* o_inherits =
    if eat_keyword st "inherits" then parse_name_list st else Ok []
  in
  let* o_children = parse_opt_body st in
  Ok { o_name; o_cls; o_value; o_pattern = pattern; o_inherits; o_children }

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
        let* n = ident st "an attribute" in
        let* () = expect st EQUALS "'='" in
        let* v = parse_value st in
        go ((n, v) :: acc)
      | _ -> unexpected st "an attribute or '}'"
    in
    go []
  | _ -> Ok []

let parse_rel st ~pattern =
  let* r_assoc = ident st "an association" in
  let* r_endpoints = parse_name_list st in
  let* r_attrs = parse_attrs st in
  Ok { r_assoc; r_endpoints; r_pattern = pattern; r_attrs }

let syntax_error msg = Invalid_operation ("data text, " ^ msg)

let parse src =
  let* st = of_string ~error:syntax_error src in
  let rec go objs rels =
    if peek st = EOF then Ok (List.rev objs, List.rev rels)
    else if eat_keyword st "object" then
      let* o = parse_object st ~pattern:false in
      go (o :: objs) rels
    else if eat_keyword st "pattern" then
      if eat_keyword st "rel" then
        let* r = parse_rel st ~pattern:true in
        go objs (r :: rels)
      else
        let* o = parse_object st ~pattern:true in
        go (o :: objs) rels
    else if eat_keyword st "rel" then
      let* r = parse_rel st ~pattern:false in
      go objs (r :: rels)
    else unexpected st "'object', 'pattern' or 'rel'"
  in
  go [] []

(* ------------------------------------------------------------------ *)
(* Replay                                                               *)
(* ------------------------------------------------------------------ *)

(* the value a literal denotes in a place of content type [ty]; an
   integer written into a FLOAT place is that float *)
let value_of ty = function
  | Typed (Value.Int n) when ty = Some Value_type.Float -> Value.Float (Float.of_int n)
  | Typed v -> v
  | Word w -> (
    match (ty, w) with
    | Some (Value_type.Enum _), _ -> Value.Enum w
    | Some Value_type.Float, "nan" -> Value.Float Float.nan
    | Some Value_type.Float, "infinity" -> Value.Float Float.infinity
    | _, ("true" | "false") -> Value.Bool (w = "true")
    | _ -> Value.Enum w)

let parse_literal ty text =
  match ty with
  | Some Value_type.String -> Ok (Value.String text)
  | Some _ | None ->
    let* st = of_string ~error:syntax_error text in
    let* lit = parse_value st in
    let* () = expect st EOF "the end of the value" in
    Ok (value_of ty lit)

let rec create_subs db ~parent ~cls subs =
  iter_result
    (fun s ->
      let* def = Schema.resolve_child (Database.schema db) ~cls ~role:s.s_role in
      let* id =
        Database.create_sub_object db ~parent ~role:s.s_role ?index:s.s_index
          ?value:(Option.map (value_of def.Class_def.content) s.s_value)
          ()
      in
      create_subs db ~parent:id ~cls:(Class_def.name def) s.s_children)
    subs

let resolve_obj db name =
  match Database.find_object db name with
  | Some id -> Ok id
  | None -> (
    match Database.find_pattern db name with
    | Some id -> Ok id
    | None -> fail (Unknown_object name))

let import db src =
  let* objs, rels = parse src in
  (* objects (and their sub-trees) *)
  let* () =
    iter_result
      (fun o ->
        let* id =
          Database.create_object db ~cls:o.o_cls ~name:o.o_name
            ~pattern:o.o_pattern ()
        in
        let* () =
          match o.o_value with
          | None -> Ok ()
          | Some lit ->
            let ty =
              Option.bind
                (Schema.find_class (Database.schema db) o.o_cls)
                (fun c -> c.Class_def.content)
            in
            Database.set_value db id (Some (value_of ty lit))
        in
        create_subs db ~parent:id ~cls:o.o_cls o.o_children)
      objs
  in
  (* inheritance *)
  let* () =
    iter_result
      (fun o ->
        iter_result
          (fun pname ->
            let* inheritor = resolve_obj db o.o_name in
            let* pattern = resolve_obj db pname in
            Database.inherit_pattern db ~pattern ~inheritor)
          o.o_inherits)
      objs
  in
  (* relationships *)
  iter_result
    (fun r ->
      let* endpoints = map_result (resolve_obj db) r.r_endpoints in
      let* rel =
        Database.create_relationship db ~assoc:r.r_assoc ~endpoints
          ~pattern:r.r_pattern ()
      in
      iter_result
        (fun (n, lit) ->
          let* decl =
            Schema.resolve_attr (Database.schema db) ~assoc:r.r_assoc ~attr:n
          in
          Database.set_rel_attr db rel n
            (Some (value_of (Some decl.Assoc_def.attr_type) lit)))
        r.r_attrs)
    rels
