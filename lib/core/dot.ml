open Seed_util
open Seed_schema

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let node_id (it : Item.t) = Printf.sprintf "n%d" (Ident.to_int it.Item.id)

let rec sub_lines v buf prefix (vi : View.vitem) =
  List.iter
    (fun (kid : View.vitem) ->
      let comp = Item.component kid.View.item in
      let label = if prefix = "" then comp else prefix ^ "." ^ comp in
      (match View.state v kid.View.item with
      | Item.Obj { value = Some value; _ } ->
        Buffer.add_string buf
          (Printf.sprintf "\\n%s = %s" (escape label)
             (escape (Value.to_string value)))
      | Item.Obj _ | Item.Rel _ | Item.Absent ->
        if View.children_v v kid = [] then
          Buffer.add_string buf (Printf.sprintf "\\n%s" (escape label)));
      sub_lines v buf label kid)
    (View.children_v v vi)

let object_node v buf (it : Item.t) =
  let name =
    match View.full_name v it with
    | Some n -> n
    | None -> Ident.to_string it.Item.id
  in
  let cls = Option.value (View.class_path_of v it) ~default:"?" in
  Buffer.add_string buf
    (Printf.sprintf "  %s [label=\"%s : %s" (node_id it) (escape name)
       (escape cls))

let of_view ?(include_subs = true) ?(include_patterns = true) v =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph seed {\n";
  Buffer.add_string buf "  node [shape=box, fontname=\"sans-serif\"];\n";
  Buffer.add_string buf "  edge [fontname=\"sans-serif\"];\n";
  let emit_node ?(pattern = false) (it : Item.t) =
    object_node v buf it;
    if include_subs then sub_lines v buf "" (View.vitem_real it);
    Buffer.add_string buf "\"";
    if pattern then Buffer.add_string buf ", style=dashed, color=gray40";
    Buffer.add_string buf "];\n"
  in
  let objects = View.all_objects v in
  List.iter emit_node objects;
  if include_patterns then
    List.iter (fun p -> emit_node ~pattern:true p) (View.all_patterns v);
  (* real relationships *)
  let db = View.db v in
  List.iter
    (fun (rel : Item.t) ->
      match View.state v rel with
      | Item.Rel rs -> (
        match
          List.map (Db_state.find_item db) rs.endpoints
          |> List.filter_map Fun.id
        with
        | [ a; b ] ->
          Buffer.add_string buf
            (Printf.sprintf "  %s -> %s [label=\"%s\"%s];\n" (node_id a)
               (node_id b) (escape rs.assoc)
               (if rs.rel_pattern then ", style=dashed, color=gray40"
                else ""))
        | endpoints ->
          List.iteri
            (fun i e ->
              Buffer.add_string buf
                (Printf.sprintf "  %s -> %s [label=\"%s/%d\"];\n" (node_id e)
                   (node_id (List.hd endpoints))
                   (escape rs.assoc) i))
            endpoints)
      | Item.Obj _ | Item.Absent -> ())
    (View.all_rels v
    @ (if include_patterns then
         (* pattern relationships, rendered dashed *)
         Db_state.fold_items db ~init:[] ~f:(fun acc it ->
             if it.Item.body = Item.Relationship && View.live_pattern v it then
               it :: acc
             else acc)
       else []));
  (* inherited (virtual) relationships and the inherits links *)
  if include_patterns then
    List.iter
      (fun (obj : Item.t) ->
        List.iter
          (fun (vr : View.vrel) ->
            match (vr.View.via, vr.View.endpoints) with
            | Some _, [ a; b ] ->
              let find e = Db_state.find_item db e in
              (match (find a, find b) with
              | Some ia, Some ib ->
                let label =
                  match View.state v vr.View.rel with
                  | Item.Rel rs -> rs.assoc
                  | Item.Obj _ | Item.Absent -> "?"
                in
                Buffer.add_string buf
                  (Printf.sprintf
                     "  %s -> %s [label=\"%s\", style=dashed, taillabel=\"inherited\"];\n"
                     (node_id ia) (node_id ib) (escape label))
              | _ -> ())
            | _ -> ())
          (View.rels_v v obj);
        List.iter
          (fun pid ->
            match Db_state.find_item db pid with
            | Some p when View.live_pattern v p ->
              Buffer.add_string buf
                (Printf.sprintf
                   "  %s -> %s [style=dotted, color=gray40, label=\"inherits\"];\n"
                   (node_id obj) (node_id p))
            | Some _ | None -> ())
          (View.inherits_of v obj))
      objects;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
