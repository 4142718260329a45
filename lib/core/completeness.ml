open Seed_util
open Seed_schema

type diagnostic =
  | Missing_sub_objects of {
      id : Ident.t;
      subject : string;
      role : string;
      class_path : string;
      required : int;
      present : int;
    }
  | Missing_participation of {
      id : Ident.t;
      subject : string;
      assoc : string;
      role : string;
      required : int;
      present : int;
    }
  | Unspecialized_class of { id : Ident.t; subject : string; cls : string }
  | Unspecialized_assoc of { id : Ident.t; assoc : string }
  | Undefined_value of { id : Ident.t; subject : string; class_path : string }
  | Missing_attribute of { id : Ident.t; assoc : string; attr : string }

let pp_diagnostic ppf = function
  | Missing_sub_objects { subject; role; class_path; required; present; _ } ->
    Fmt.pf ppf "%s: needs at least %d %s (%s), has %d" subject required role
      class_path present
  | Missing_participation { subject; assoc; role; required; present; _ } ->
    Fmt.pf ppf "%s: needs at least %d %s relationship(s) in role %s, has %d"
      subject required assoc role present
  | Unspecialized_class { subject; cls; _ } ->
    Fmt.pf ppf "%s: still classified in covering generalization %s" subject cls
  | Unspecialized_assoc { id; assoc } ->
    Fmt.pf ppf "relationship %a: still classified in covering generalization %s"
      Ident.pp id assoc
  | Undefined_value { subject; class_path; _ } ->
    Fmt.pf ppf "%s: value of type %s still undefined" subject class_path
  | Missing_attribute { id; assoc; attr } ->
    Fmt.pf ppf "relationship %a: required %s attribute %s still undefined"
      Ident.pp id assoc attr

let subject_name view vi =
  match View.vitem_name view vi with
  | Some n -> n
  | None -> Ident.to_string vi.View.item.Item.id

(* Recursive structural completeness of a (v)item against its class
   path: minimum sub-object counts per role, undefined leaf values. *)
let rec check_components view (vi : View.vitem) ~cls acc =
  let schema = View.schema view in
  let kids = View.children_v view vi in
  let acc =
    List.fold_left
      (fun acc (role, (def : Class_def.t)) ->
        let present = Consistency.count_role kids ~role in
        if Cardinality.meets_min def.card present then acc
        else
          Missing_sub_objects
            {
              id = vi.View.item.Item.id;
              subject = subject_name view vi;
              role;
              class_path = Class_def.name def;
              required = def.card.Cardinality.min;
              present;
            }
          :: acc)
      acc
      (Schema.effective_children schema cls)
  in
  (* undefined leaf values and recursion *)
  List.fold_left
    (fun acc (kid : View.vitem) ->
      match View.state view kid.View.item with
      | Item.Rel _ | Item.Absent -> acc
      | Item.Obj ks ->
        let acc =
          match Schema.find_class schema ks.cls with
          | Some def
            when def.Class_def.content <> None && ks.value = None ->
            Undefined_value
              {
                id = kid.View.item.Item.id;
                subject = subject_name view kid;
                class_path = ks.cls;
              }
            :: acc
          | Some _ | None -> acc
        in
        check_components view kid ~cls:ks.cls acc)
    acc kids

let check_object view (obj : Item.t) =
  let schema = View.schema view in
  match View.state view obj with
  | Item.Rel _ | Item.Absent -> []
  | Item.Obj st ->
    let name =
      match View.full_name view obj with
      | Some n -> n
      | None -> Ident.to_string obj.Item.id
    in
    let acc = [] in
    (* covering condition *)
    let acc =
      match Schema.find_class schema st.cls with
      | Some def when def.Class_def.covering ->
        Unspecialized_class { id = obj.Item.id; subject = name; cls = st.cls }
        :: acc
      | Some _ | None -> acc
    in
    (* undefined own value *)
    let acc =
      match Schema.find_class schema st.cls with
      | Some def when def.Class_def.content <> None && st.value = None ->
        Undefined_value
          { id = obj.Item.id; subject = name; class_path = st.cls }
        :: acc
      | Some _ | None -> acc
    in
    (* participation minima *)
    let rels = View.rels_v view obj in
    let acc =
      List.fold_left
        (fun acc ((def : Assoc_def.t), pos, (role : Assoc_def.role)) ->
          let present =
            Consistency.count_participation view rels obj ~assoc:def.Assoc_def.name
              ~pos
          in
          if Cardinality.meets_min role.Assoc_def.card present then acc
          else
            Missing_participation
              {
                id = obj.Item.id;
                subject = name;
                assoc = def.Assoc_def.name;
                role = role.Assoc_def.role_name;
                required = role.Assoc_def.card.Cardinality.min;
                present;
              }
            :: acc)
        acc
        (Schema.participation_constraints schema ~cls:st.cls)
    in
    (* component structure *)
    let acc = check_components view (View.vitem_real obj) ~cls:st.cls acc in
    List.rev acc

let check_relationship view (rel : Item.t) =
  let schema = View.schema view in
  match View.state view rel with
  | Item.Obj _ | Item.Absent -> []
  | Item.Rel rs ->
    let covering =
      match Schema.find_assoc schema rs.assoc with
      | Some def when def.Assoc_def.covering ->
        [ Unspecialized_assoc { id = rel.Item.id; assoc = rs.assoc } ]
      | Some _ | None -> []
    in
    let missing_attrs =
      List.filter_map
        (fun (a : Assoc_def.attr) ->
          if
            a.Assoc_def.required
            && not (List.mem_assoc a.Assoc_def.attr_name rs.rel_attrs)
          then
            Some
              (Missing_attribute
                 {
                   id = rel.Item.id;
                   assoc = rs.assoc;
                   attr = a.Assoc_def.attr_name;
                 })
          else None)
        (Schema.effective_attrs schema rs.assoc)
    in
    covering @ missing_attrs

let check_database view =
  let objs = View.all_objects view in
  let rels = View.all_rels view in
  List.concat_map (check_object view) objs
  @ List.concat_map (check_relationship view) rels

let is_complete view = check_database view = []
