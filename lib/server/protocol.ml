open Seed_util
open Seed_schema
open Seed_error
module Database = Seed_core.Database
module View = Seed_core.View

type op =
  | Create_object of { cls : string; name : string; pattern : bool }
  | Create_sub of {
      owner : string;
      role : string;
      index : int option;
      value : Value.t option;
    }
  | Create_rel of { assoc : string; endpoints : string list; pattern : bool }
  | Set_value of { path : string; value : Value.t option }
  | Set_text of { path : string; text : string }
  | Rename of { name : string; new_name : string }
  | Reclassify_obj of { name : string; to_ : string }
  | Reclassify_rel of { assoc : string; endpoints : string list; to_ : string }
  | Delete of { path : string }
  | Inherit of { pattern : string; inheritor : string }

let root_of path =
  match String.index_opt path '.' with
  | Some i -> String.sub path 0 i
  | None -> path

let iter_touches op f =
  match op with
  | Create_object _ -> ()
  | Create_sub { owner; _ } -> f (root_of owner)
  (* endpoint paths may address sub-objects: the lockable unit is the
     root object, not the raw path string *)
  | Create_rel { endpoints; _ } | Reclassify_rel { endpoints; _ } ->
    List.iter (fun e -> f (root_of e)) endpoints
  | Set_value { path; _ } | Set_text { path; _ } | Delete { path } -> f (root_of path)
  (* the target name is touched too: renaming onto an existing object's
     name contends with that object's namespace *)
  | Rename { name; new_name } ->
    f name;
    f new_name
  | Reclassify_obj { name; _ } -> f (root_of name)
  | Inherit { pattern; inheritor } ->
    f pattern;
    f inheritor

(* updates always apply to the current version, so every name resolves
   in the current state, whatever version retrieval has selected *)
let find_name db name =
  match View.find_object (View.current (Database.raw db)) name with
  | Some it -> Ok it.Seed_core.Item.id
  | None -> fail (Unknown_object name)

let find_path v path =
  match View.resolve_name v path with
  | Some it -> Ok it.Seed_core.Item.id
  | None -> fail (Unknown_object path)

let find_rel v ~assoc ~endpoints =
  let* ids = map_result (find_path v) endpoints in
  let matches it =
    View.live_normal v it
    &&
    match View.state v it with
    | Seed_core.Item.Rel r ->
      String.equal r.assoc assoc && List.equal Ident.equal r.endpoints ids
    | Seed_core.Item.Obj _ | Seed_core.Item.Absent -> false
  in
  let candidates = match ids with id :: _ -> View.rels v id | [] -> [] in
  match List.find_opt matches candidates with
  | Some r -> Ok r.Seed_core.Item.id
  | None ->
    fail
      (Unknown_item
         (Printf.sprintf "%s(%s)" assoc (String.concat ", " endpoints)))

(* PATH := TEXT, the text read for the content type of its place. A
   missing sub-object is created holding the value, its role and index
   read from the path's last component; a multi-valued role needs the
   index, so setting one path twice sets one place *)
let set_text db v path text =
  let schema = View.schema v in
  let cls id =
    match View.state_of_id v id with
    | Seed_core.Item.Obj o -> o.cls
    | Seed_core.Item.Rel _ | Seed_core.Item.Absent -> ""
  in
  let read content = Seed_core.Data_text.parse_literal content text in
  match find_path v path with
  | Ok id ->
    let class_def = Schema.find_class schema (cls id) in
    let* value = read (Option.bind class_def (fun c -> c.Class_def.content)) in
    let* () = Database.set_value db id (Some value) in
    Ok id
  | Error _ as missing -> (
    let components = Result.value (Path.of_string path) ~default:[] in
    match Path.parent components with
    | None -> missing
    | Some owner ->
      let { Path.name = role; index } = Path.last components in
      let* parent = find_path v (Path.to_string owner) in
      let* def = Schema.resolve_child schema ~cls:(cls parent) ~role in
      let* () =
        if index = None && def.Class_def.card.Cardinality.max <> Some 1 then
          fail
            (Invalid_operation
               (Printf.sprintf
                  "%s: role %s admits several instances; name one by index" path
                  role))
        else Ok ()
      in
      let* value = read def.Class_def.content in
      Database.create_sub_object db ~parent ~role ?index ~value ())

let apply db op =
  let v = View.current (Database.raw db) in
  let on id r = Result.map (fun () -> id) r in
  match op with
  | Create_object { cls; name; pattern } ->
    Database.create_object db ~cls ~name ~pattern ()
  | Create_sub { owner; role; index; value } ->
    let* parent = find_path v owner in
    Database.create_sub_object db ~parent ~role ?index ?value ()
  | Create_rel { assoc; endpoints; pattern } ->
    let* ids = map_result (find_path v) endpoints in
    Database.create_relationship db ~assoc ~endpoints:ids ~pattern ()
  | Set_value { path; value } ->
    let* id = find_path v path in
    on id (Database.set_value db id value)
  | Set_text { path; text } -> set_text db v path text
  | Rename { name; new_name } ->
    let* id = find_name db name in
    on id (Database.rename_object db id new_name)
  | Reclassify_obj { name; to_ } ->
    let* id = find_path v name in
    on id (Database.reclassify db id ~to_)
  | Reclassify_rel { assoc; endpoints; to_ } ->
    let* rel = find_rel v ~assoc ~endpoints in
    on rel (Database.reclassify db rel ~to_)
  | Delete { path } ->
    let* id = find_path v path in
    on id (Database.delete db id)
  | Inherit { pattern; inheritor } ->
    let* p = find_name db pattern in
    let* i = find_name db inheritor in
    on i (Database.inherit_pattern db ~pattern:p ~inheritor:i)
