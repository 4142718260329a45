open Seed_schema
module Raw = Seed_baseline.Raw_store

type t = Raw.t

let create () = Raw.create ()

let note_thing t name ?description () =
  Raw.put_object t ~name ~cls:"Thing";
  match description with
  | None -> ()
  | Some d -> Raw.set_attr t ~name ~attr:"Description" (Value.String d)

let add_keyword t name kw =
  (* raw stores overwrite; keywords concatenate to stay comparable *)
  let prev =
    match Raw.get_attr t ~name ~attr:"Keywords" with
    | Some (Value.String s) -> s ^ ","
    | Some _ | None -> ""
  in
  Raw.set_attr t ~name ~attr:"Keywords" (Value.String (prev ^ kw))

let assoc_name = function
  | Spades.Vague -> "Access"
  | Spades.Reading -> "Read"
  | Spades.Writing -> "Write"

let add_flow t ~data ~action flow =
  Raw.add_rel t ~assoc:(assoc_name flow) ~from_:data ~to_:action

let refine_flow t ~data ~action flow =
  (* no identity: drop matching triples, re-add with the refined kind *)
  let keep =
    List.filter
      (fun (_, f, to_) -> not (String.equal f data && String.equal to_ action))
      (Raw.rels_of t data)
  in
  Raw.delete_object t data;
  Raw.put_object t ~name:data ~cls:"Data";
  List.iter (fun (a, f, to_) -> Raw.add_rel t ~assoc:a ~from_:f ~to_) keep;
  Raw.add_rel t ~assoc:(assoc_name flow) ~from_:data ~to_:action

let object_count = Raw.object_count
let flow_count = Raw.rel_count
