open Seed_util
open Seed_schema
open Seed_error

type sub = {
  su_role : string;
  su_idx : int;
  su_cls : string;
  mutable su_value : Value.t option;
}

type obj = {
  ob_cls : string;
  mutable ob_value : Value.t option;
  mutable ob_subs : sub list;
}

type rel = { re_assoc : string; re_endpoints : string list }

type t = {
  schema : Schema.t;
  objects : (string, obj) Hashtbl.t;
  mutable rels : rel list;
}

type new_obj = {
  no_name : string;
  no_cls : string;
  no_value : Value.t option;
  no_subs : (string * Value.t option) list;
}

type new_rel = { nr_assoc : string; nr_endpoints : string list }

let create schema = { schema; objects = Hashtbl.create 256; rels = [] }

let mem t name = Hashtbl.mem t.objects name

let class_of t name =
  Option.map (fun o -> o.ob_cls) (Hashtbl.find_opt t.objects name)

let sub_values t name ~role =
  match Hashtbl.find_opt t.objects name with
  | None -> []
  | Some o ->
    List.filter_map
      (fun s -> if String.equal s.su_role role then s.su_value else None)
      o.ob_subs

let object_count t = Hashtbl.length t.objects
let rel_count t = List.length t.rels

(* --- staged validation -------------------------------------------- *)

let check_max ~element ~subject ~card count =
  if Cardinality.within_max card count then Ok ()
  else
    fail
      (Cardinality_violation
         { element; subject; bound = "max " ^ Cardinality.to_string card; count })

let check_min ~element ~subject ~card count =
  if Cardinality.meets_min card count then Ok ()
  else
    fail
      (Cardinality_violation
         { element; subject; bound = "min " ^ Cardinality.to_string card; count })

let validate_obj t (o : new_obj) =
  let* def = Schema.find_class_res t.schema o.no_cls in
  let* () =
    if Class_def.is_top_level def then Ok ()
    else fail (Invalid_operation (o.no_cls ^ " is a sub-class"))
  in
  let* () =
    if def.Class_def.covering then
      fail
        (Schema_violation
           (Printf.sprintf
              "%s: conventional store refuses objects in covering class %s; \
               classify precisely"
              o.no_name o.no_cls))
    else Ok ()
  in
  let* () =
    match (o.no_value, def.Class_def.content) with
    | None, Some _ ->
      fail
        (Schema_violation
           (o.no_name ^ ": value required by class " ^ o.no_cls))
    | None, None -> Ok ()
    | Some _, None ->
      fail
        (Type_mismatch
           { expected = "no content for " ^ o.no_cls; got = "a value" })
    | Some v, Some ty -> Value.check ty v
  in
  (* per-role counts, membership and values; completeness included *)
  let* subs =
    map_result
      (fun (role, value) ->
        let* sdef = Schema.resolve_child t.schema ~cls:o.no_cls ~role in
        let* () =
          match (value, sdef.Class_def.content) with
          | None, Some _ ->
            fail
              (Schema_violation
                 (Printf.sprintf "%s.%s: value required" o.no_name role))
          | None, None -> Ok ()
          | Some _, None ->
            fail
              (Type_mismatch
                 {
                   expected = "no content for " ^ Class_def.name sdef;
                   got = "a value";
                 })
          | Some v, Some ty -> Value.check ty v
        in
        Ok (role, sdef, value))
      o.no_subs
  in
  let roles = Schema.effective_children t.schema o.no_cls in
  let* () =
    iter_result
      (fun (role, (sdef : Class_def.t)) ->
        let count =
          List.length (List.filter (fun (r, _, _) -> String.equal r role) subs)
        in
        let* () =
          check_max ~element:(Class_def.name sdef) ~subject:o.no_name
            ~card:sdef.Class_def.card count
        in
        check_min ~element:(Class_def.name sdef) ~subject:o.no_name
          ~card:sdef.Class_def.card count)
      roles
  in
  (* deeper levels must not require anything we cannot express *)
  let* () =
    iter_result
      (fun (_, (sdef : Class_def.t), _) ->
        iter_result
          (fun (_, (deep : Class_def.t)) ->
            if deep.Class_def.card.Cardinality.min > 0 then
              fail
                (Schema_violation
                   (Printf.sprintf
                      "schema requires nested sub-objects below %s; the rigid \
                       baseline supports one level"
                      (Class_def.name sdef)))
            else Ok ())
          (Schema.effective_children t.schema (Class_def.name sdef)))
      subs
  in
  Ok
    ( o.no_name,
      {
        ob_cls = o.no_cls;
        ob_value = o.no_value;
        ob_subs =
          List.mapi
            (fun i (role, sdef, value) ->
              {
                su_role = role;
                su_idx = i;
                su_cls = Class_def.name sdef;
                su_value = value;
              })
            subs;
      } )

let class_of_staged t staged name =
  match List.assoc_opt name staged with
  | Some o -> Some o.ob_cls
  | None -> class_of t name

let participation t rels name ~assoc ~pos =
  (* count in existing + staged relationships *)
  let all = rels @ t.rels in
  List.length
    (List.filter
       (fun r ->
         Schema.assoc_is_a t.schema ~sub:r.re_assoc ~super:assoc
         && (match List.nth_opt r.re_endpoints pos with
            | Some e -> String.equal e name
            | None -> false))
       all)

let validate_rel t staged (r : new_rel) =
  let* def = Schema.find_assoc_res t.schema r.nr_assoc in
  let* () =
    if def.Assoc_def.covering then
      fail
        (Schema_violation
           ("conventional store refuses relationships in covering association "
          ^ r.nr_assoc))
    else Ok ()
  in
  let* () =
    if List.length r.nr_endpoints = Assoc_def.arity def then Ok ()
    else fail (Invalid_operation ("arity mismatch for " ^ r.nr_assoc))
  in
  iter_result
    (fun (i, name) ->
      let role = Assoc_def.nth_role def i in
      match class_of_staged t staged name with
      | None -> fail (Unknown_object name)
      | Some cls ->
        if Schema.class_is_a t.schema ~sub:cls ~super:role.Assoc_def.target
        then Ok ()
        else
          fail
            (Membership_violation
               {
                 expected = role.Assoc_def.target;
                 got = cls;
                 context = r.nr_assoc ^ "." ^ role.Assoc_def.role_name;
               }))
    (List.mapi (fun i e -> (i, e)) r.nr_endpoints)

let acyclic_ok t new_rels ~assoc =
  let all = new_rels @ t.rels in
  let edges =
    List.filter_map
      (fun r ->
        if Schema.assoc_is_a t.schema ~sub:r.re_assoc ~super:assoc then
          match r.re_endpoints with [ a; b ] -> Some (a, b) | _ -> None
        else None)
      all
  in
  (* DFS cycle detection over the string graph *)
  let adj = Hashtbl.create 16 in
  List.iter
    (fun (a, b) ->
      Hashtbl.replace adj a (b :: Option.value ~default:[] (Hashtbl.find_opt adj a)))
    edges;
  let state = Hashtbl.create 16 in
  (* 1 = in progress, 2 = done *)
  let rec dfs n =
    match Hashtbl.find_opt state n with
    | Some 1 -> false
    | Some _ -> true
    | None ->
      Hashtbl.replace state n 1;
      let ok =
        List.for_all dfs (Option.value ~default:[] (Hashtbl.find_opt adj n))
      in
      Hashtbl.replace state n 2;
      ok
  in
  List.for_all (fun (a, _) -> dfs a) edges

let insert_cluster t ~objs ~rels =
  (* uniqueness *)
  let* () =
    iter_result
      (fun o ->
        if mem t o.no_name then fail (Duplicate_name o.no_name) else Ok ())
      objs
  in
  let names = List.map (fun o -> o.no_name) objs in
  let* () =
    if List.length (List.sort_uniq String.compare names) = List.length names
    then Ok ()
    else fail (Invalid_operation "duplicate names within cluster")
  in
  let* staged = map_result (validate_obj t) objs in
  let* () = iter_result (validate_rel t staged) rels in
  let new_rels =
    List.map (fun r -> { re_assoc = r.nr_assoc; re_endpoints = r.nr_endpoints }) rels
  in
  (* maximum participation for every endpoint of new rels *)
  let* () =
    iter_result
      (fun r ->
        let* _def = Schema.find_assoc_res t.schema r.re_assoc in
        let levels =
          r.re_assoc :: Schema.assoc_supers t.schema r.re_assoc
        in
        iter_result
          (fun (i, name) ->
            iter_result
              (fun level ->
                match Schema.find_assoc t.schema level with
                | None -> fail (Unknown_association level)
                | Some d ->
                  let role = Assoc_def.nth_role d i in
                  check_max
                    ~element:(level ^ "." ^ role.Assoc_def.role_name)
                    ~subject:name ~card:role.Assoc_def.card
                    (participation t new_rels name ~assoc:level ~pos:i))
              levels)
          (List.mapi (fun i e -> (i, e)) r.re_endpoints))
      new_rels
  in
  (* minimum participation of the new objects — completeness enforced on
     entry, the defining property of the conventional approach *)
  let* () =
    iter_result
      (fun (name, (o : obj)) ->
        iter_result
          (fun ((adef : Assoc_def.t), pos, (role : Assoc_def.role)) ->
            check_min
              ~element:(adef.Assoc_def.name ^ "." ^ role.Assoc_def.role_name)
              ~subject:name ~card:role.Assoc_def.card
              (participation t new_rels name ~assoc:adef.Assoc_def.name
                 ~pos))
          (Schema.participation_constraints t.schema ~cls:o.ob_cls))
      staged
  in
  (* acyclicity *)
  let* () =
    iter_result
      (fun (a : Assoc_def.t) ->
        if a.Assoc_def.acyclic then
          if acyclic_ok t new_rels ~assoc:a.Assoc_def.name then Ok ()
          else fail (Cycle_detected a.Assoc_def.name)
        else Ok ())
      (Schema.assocs t.schema)
  in
  (* commit *)
  List.iter (fun (name, o) -> Hashtbl.replace t.objects name o) staged;
  t.rels <- new_rels @ t.rels;
  Ok ()

let delete_object t name =
  match Hashtbl.find_opt t.objects name with
  | None -> fail (Unknown_object name)
  | Some _ ->
    let removed, kept =
      List.partition
        (fun r -> List.exists (String.equal name) r.re_endpoints)
        t.rels
    in
    (* referential integrity: other endpoints must stay above minima *)
    let affected =
      List.concat_map (fun r -> r.re_endpoints) removed
      |> List.filter (fun n -> not (String.equal n name))
      |> List.sort_uniq String.compare
    in
    let participation_in rels n ~assoc ~pos =
      List.length
        (List.filter
           (fun r ->
             Schema.assoc_is_a t.schema ~sub:r.re_assoc ~super:assoc
             && (match List.nth_opt r.re_endpoints pos with
                | Some e -> String.equal e n
                | None -> false))
           rels)
    in
    let* () =
      iter_result
        (fun n ->
          match class_of t n with
          | None -> Ok ()
          | Some cls ->
            iter_result
              (fun ((adef : Assoc_def.t), pos, (role : Assoc_def.role)) ->
                check_min
                  ~element:(adef.Assoc_def.name ^ "." ^ role.Assoc_def.role_name)
                  ~subject:n ~card:role.Assoc_def.card
                  (participation_in kept n ~assoc:adef.Assoc_def.name ~pos))
              (Schema.participation_constraints t.schema ~cls))
        affected
    in
    Hashtbl.remove t.objects name;
    t.rels <- kept;
    Ok ()

let set_value t ~name ?role v =
  match Hashtbl.find_opt t.objects name with
  | None -> fail (Unknown_object name)
  | Some o -> (
    match role with
    | None -> (
      let* def = Schema.find_class_res t.schema o.ob_cls in
      match def.Class_def.content with
      | None ->
        fail
          (Type_mismatch
             { expected = "no content for " ^ o.ob_cls; got = "a value" })
      | Some ty ->
        let* () = Value.check ty v in
        o.ob_value <- Some v;
        Ok ())
    | Some (role, pos) -> (
      let matching =
        List.filter (fun s -> String.equal s.su_role role) o.ob_subs
      in
      match List.nth_opt matching pos with
      | None -> fail (Unknown_object (Printf.sprintf "%s.%s[%d]" name role pos))
      | Some sub -> (
        let* def = Schema.find_class_res t.schema sub.su_cls in
        match def.Class_def.content with
        | None ->
          fail
            (Type_mismatch
               { expected = "no content for " ^ sub.su_cls; got = "a value" })
        | Some ty ->
          let* () = Value.check ty v in
          sub.su_value <- Some v;
          Ok ())))

module Full_copy = struct
  type snapshot = string

  let take t =
    let bindings = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.objects [] in
    Marshal.to_string (bindings, t.rels) []

  let size_bytes snap = String.length snap
end
