open Seed_util
open Seed_error

type entry = { version : Version_id.t; state : Item.state; seq : int }

let stamps_of db id =
  let st = Database.raw db in
  match Db_state.find_item st id with
  | None -> []
  | Some item ->
    List.filter_map
      (fun (vid, state) ->
        match Versioning.find (Db_state.versions st) vid with
        | Some node -> Some { version = vid; state; seq = node.Versioning.seq }
        | None -> None)
      (Item.history_bindings item)
    |> List.sort (fun a b -> Int.compare a.seq b.seq)

let versions_of db id ?from_ () =
  let st = Database.raw db in
  let* _ = Db_state.find_item_res st id in
  let all = stamps_of db id in
  match from_ with
  | None -> Ok all
  | Some v ->
    let* node = Versioning.find_res (Db_state.versions st) v in
    Ok (List.filter (fun e -> e.seq >= node.Versioning.seq) all)

let find_item_by_name_anywhere db name =
  let st = Database.raw db in
  match Database.find_object db name with
  | Some id -> Db_state.find_item st id
  | None ->
    (* search history: any stamp carrying this name *)
    let found = ref None in
    Db_state.iter_items st (fun it ->
        if !found = None && it.Item.body = Item.Independent then
          let matches = function
            | Item.Obj { name = Some n; _ } -> String.equal n name
            | Item.Obj _ | Item.Rel _ | Item.Absent -> false
          in
          if matches it.Item.current || Item.history_exists matches it then found := Some it);
    !found

let versions_of_object db name ?from_ () =
  match find_item_by_name_anywhere db name with
  | None -> fail (Unknown_object name)
  | Some item -> versions_of db item.Item.id ?from_ ()

let state_in db id vid =
  let st = Database.raw db in
  let* item = Db_state.find_item_res st id in
  let* _ = Versioning.find_res (Db_state.versions st) vid in
  Ok (Versioning.state_at (Db_state.versions st) vid item)

let changed_between db v1 v2 =
  let st = Database.raw db in
  let* _ = Versioning.find_res (Db_state.versions st) v1 in
  let* _ = Versioning.find_res (Db_state.versions st) v2 in
  (* two materialized views: two table lookups per item *)
  let a = View.at st v1 and b = View.at st v2 in
  let changed =
    Db_state.fold_items st ~init:[] ~f:(fun acc item ->
        if View.state a item <> View.state b item then item.Item.id :: acc else acc)
  in
  Ok (List.sort Ident.compare changed)

let version_path db vid =
  let st = Database.raw db in
  List.rev (Versioning.ancestors (Db_state.versions st) vid)

let pp_entry ppf e =
  let describe = function
    | Item.Obj o ->
      Printf.sprintf "class %s%s%s" o.cls
        (match o.value with
        | Some v -> " = " ^ Seed_schema.Value.to_string v
        | None -> "")
        (if o.deleted then " (deleted)" else "")
    | Item.Rel r ->
      Printf.sprintf "assoc %s%s" r.assoc
        (if r.rel_deleted then " (deleted)" else "")
    | Item.Absent -> "absent"
  in
  Fmt.pf ppf "%a: %s" Version_id.pp e.version (describe e.state)
