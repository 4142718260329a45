open Seed_util
open Seed_schema
open Seed_error

let connect_common db ~pattern ~assoc ~pattern_role ~common =
  let schema = Database.schema db in
  let* def = Schema.find_assoc_res schema assoc in
  let* () =
    if Assoc_def.arity def = 2 then Ok ()
    else
      fail
        (Invalid_operation
           "variant families connect through binary associations")
  in
  let* pos =
    match Assoc_def.role_position def pattern_role with
    | Some p -> Ok p
    | None -> fail (Unknown_role (assoc, pattern_role))
  in
  let endpoints = if pos = 0 then [ pattern; common ] else [ common; pattern ] in
  Database.create_relationship db ~assoc ~endpoints ~pattern:true ()

let add_variant db ~member ~patterns =
  iter_result
    (fun pattern -> Database.inherit_pattern db ~pattern ~inheritor:member)
    patterns

let remove_variant db ~member ~patterns =
  iter_result
    (fun pattern -> Database.uninherit_pattern db ~pattern ~inheritor:member)
    patterns

let members view ~patterns =
  match patterns with
  | [] -> []
  | first :: rest ->
    View.inheritors_of view first
    |> List.filter (fun (it : Item.t) ->
           List.for_all
             (fun p ->
               List.exists
                 (fun (inh : Item.t) -> Ident.equal inh.Item.id it.Item.id)
                 (View.inheritors_of view p))
             rest)

let common_of view ~member ~assoc =
  let schema = View.schema view in
  let db = View.db view in
  View.rels_v view member
  |> List.filter_map (fun (vr : View.vrel) ->
         match (vr.View.via, View.state view vr.View.rel) with
         | Some _, Item.Rel rs
           when Schema.assoc_is_a schema ~sub:rs.assoc ~super:assoc ->
           (* an inherited connection; the non-member endpoint is common *)
           List.find_opt
             (fun e -> not (Ident.equal e member.Item.id))
             vr.View.endpoints
           |> Option.map (Db_state.find_item db)
           |> Option.join
         | _ -> None)
  |> List.filter (View.live_normal view)
  |> List.sort_uniq (fun (a : Item.t) b -> Ident.compare a.Item.id b.Item.id)

let shares_common view ~patterns =
  let ms = members view ~patterns in
  (* each member's inherited connections, as (assoc, other-endpoint) sets *)
  let signature (m : Item.t) =
    View.rels_v view m
    |> List.filter_map (fun (vr : View.vrel) ->
           match (vr.View.via, View.state view vr.View.rel) with
           | Some _, Item.Rel rs ->
             let others =
               List.filter
                 (fun e -> not (Ident.equal e m.Item.id))
                 vr.View.endpoints
             in
             Some (rs.assoc, List.sort Ident.compare others)
           | _ -> None)
    |> List.sort compare
  in
  match ms with
  | [] | [ _ ] -> true
  | first :: rest ->
    let s = signature first in
    List.for_all (fun m -> signature m = s) rest
