open Seed_util
open Seed_schema
open Seed_error
module Database = Seed_core.Database
module Query = Seed_core.Query
module View = Seed_core.View
module Item = Seed_core.Item
module Completeness = Seed_core.Completeness

type t = { database : Database.t }

let create () = { database = Database.create Spec_model.schema }
let db t = t.database

let obj t name =
  match Database.find_object t.database name with
  | Some id -> Ok id
  | None -> fail (Unknown_object name)

let note_thing t name ?description () =
  let* id = Database.create_object t.database ~cls:"Thing" ~name () in
  let* () =
    match description with
    | None -> Ok ()
    | Some text ->
      let* _ =
        Database.create_sub_object t.database ~parent:id ~role:"Description"
          ~value:(Value.String text) ()
      in
      Ok ()
  in
  Ok id

(* Re-classify towards [target]; succeeds silently when the object is
   already there or somewhere below. *)
let refine_class t name target =
  let* id = obj t name in
  match Database.class_of t.database id with
  | None -> fail (Unknown_object name)
  | Some cls ->
    let schema = Database.schema t.database in
    if Schema.class_is_a schema ~sub:cls ~super:target then Ok ()
    else Database.reclassify t.database id ~to_:target

let classify_data t name = refine_class t name "Data"
let classify_action t name = refine_class t name "Action"

let set_single_sub t name ~role value =
  let* id = obj t name in
  match Database.resolve t.database (name ^ "." ^ role) with
  | Some sub -> Database.set_value t.database sub (Some value)
  | None ->
    let* _ =
      Database.create_sub_object t.database ~parent:id ~role ~value ()
    in
    Ok ()

let add_keyword t name kw =
  let* id = obj t name in
  let* _ =
    Database.create_sub_object t.database ~parent:id ~role:"Keywords"
      ~value:(Value.String kw) ()
  in
  Ok ()

let add_text t ~data ~body ?selector () =
  let* () = classify_data t data in
  let* id = obj t data in
  let* text = Database.create_sub_object t.database ~parent:id ~role:"Text" () in
  let* _ =
    Database.create_sub_object t.database ~parent:text ~role:"Body"
      ~value:(Value.String body) ()
  in
  let* () =
    match selector with
    | None -> Ok ()
    | Some s ->
      let* _ =
        Database.create_sub_object t.database ~parent:text ~role:"Selector"
          ~value:(Value.String s) ()
      in
      Ok ()
  in
  Ok text

let set_revised t name date =
  set_single_sub t name ~role:"Revised" (Value.Date date)

type flow = Vague | Reading | Writing

let flow_assoc = function
  | Vague -> "Access"
  | Reading -> "Read"
  | Writing -> "Write"

let data_target = function
  | Vague -> "Data"
  | Reading -> "InputData"
  | Writing -> "OutputData"

(* the tool's convention: a fresh Write writes once unless told
   otherwise, so Fig. 3's required NumberOfWrites is always defined *)
let default_write_attrs t rel = function
  | Writing ->
    Database.set_rel_attr t.database rel "NumberOfWrites" (Some (Value.Int 1))
  | Vague | Reading -> Ok ()

let add_flow t ~data ~action flow =
  let* () = refine_class t data (data_target flow) in
  let* () = classify_action t action in
  let* d = obj t data in
  let* a = obj t action in
  let* rel =
    Database.create_relationship t.database ~assoc:(flow_assoc flow)
      ~endpoints:[ d; a ] ()
  in
  let* () = default_write_attrs t rel flow in
  Ok rel

let refine_flow t rel flow =
  match Database.endpoints t.database rel with
  | [ d; _ ] -> (
    let* () =
      match Database.full_name t.database d with
      | Some name -> refine_class t name (data_target flow)
      | None -> fail (Unknown_item (Ident.to_string d))
    in
    match Database.assoc_of t.database rel with
    | Some a when String.equal a (flow_assoc flow) -> Ok ()
    | Some _ ->
      let* () = Database.reclassify t.database rel ~to_:(flow_assoc flow) in
      default_write_attrs t rel flow
    | None -> fail (Unknown_item (Ident.to_string rel)))
  | _ -> fail (Unknown_item (Ident.to_string rel))

let contain t ~container ~action =
  let* () = classify_action t container in
  let* () = classify_action t action in
  let* c = obj t container in
  let* a = obj t action in
  Database.create_relationship t.database ~assoc:"Contained"
    ~endpoints:[ a; c ] ()

type maturity = {
  things : int;
  data : int;
  actions : int;
  vague_flows : int;
  precise_flows : int;
  diagnostics : Completeness.diagnostic list;
}

let maturity t =
  let v = Database.view t.database in
  let exact cls = Query.count v (Query.in_class cls) in
  let rels = View.all_rels v in
  let with_assoc name =
    List.length
      (List.filter
         (fun (r : Item.t) ->
           match View.state v r with
           | Seed_core.Item.Rel rs -> String.equal rs.assoc name
           | Seed_core.Item.Obj _ | Seed_core.Item.Absent -> false)
         rels)
  in
  {
    things = exact "Thing";
    data = Query.count v (Query.is_a "Data");
    actions = exact "Action";
    vague_flows = with_assoc "Access";
    precise_flows = with_assoc "Read" + with_assoc "Write";
    diagnostics = Database.completeness_report t.database;
  }

let is_implementable t =
  let m = maturity t in
  m.things = 0 && m.vague_flows = 0 && m.diagnostics = []

let save_milestone t = Database.create_version t.database

let pp_maturity ppf m =
  Fmt.pf ppf
    "@[<v>things still vague: %d@,\
     data objects: %d@,\
     actions: %d@,\
     vague data flows: %d@,\
     precise data flows: %d@,\
     completeness diagnostics: %d@]"
    m.things m.data m.actions m.vague_flows m.precise_flows
    (List.length m.diagnostics)
