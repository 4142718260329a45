open Seed_util

(* A version view holds its materialized extent, resolved once here:
   every read below is then a lookup in it. *)
type mode = Current | At of Version_id.t * Db_state.version_extent

type t = { db_ : Db_state.t; mode : mode }

let current db_ = { db_; mode = Current }
let at db_ vid = { db_; mode = At (vid, Db_state.version_extent db_ vid) }

let retrieval db_ =
  match Db_state.retrieval_version db_ with
  | None -> current db_
  | Some vid -> at db_ vid

let version t = match t.mode with Current -> None | At (vid, _) -> Some vid
let db t = t.db_

let extents t =
  match t.mode with
  | Current -> Db_state.extents t.db_
  | At (_, ve) -> Db_state.ve_extents ve

let text_index t =
  match t.mode with
  | Current -> Db_state.text_index t.db_
  | At (_, ve) ->
    if Db_state.text_index_enabled t.db_ then Some (Db_state.ve_text_index ve)
    else None

let schema t =
  match t.mode with
  | Current -> Db_state.schema t.db_
  | At (_, ve) -> Db_state.ve_schema ve

let state t (item : Item.t) =
  match t.mode with
  | Current -> (
    (* resolve by id: items are immutable values, so a handle obtained
       before an update still points at the superseded record *)
    match Db_state.find_item t.db_ item.Item.id with
    | Some it -> it.Item.current
    | None -> None)
  | At (_, ve) -> Db_state.ve_state ve item.Item.id

let fetched_state t (it : Item.t) =
  match t.mode with Current -> it.Item.current | At (_, ve) -> Db_state.ve_state ve it.Item.id

let state_of_id t id = Option.bind (Db_state.find_item t.db_ id) (fetched_state t)
let live_state = function Some s -> not (Item.state_deleted s) | None -> false
let live t item = live_state (state t item)

let live_normal t item =
  match state t item with
  | Some s -> (not (Item.state_deleted s)) && not (Item.state_pattern s)
  | None -> false

let live_pattern t item =
  match state t item with
  | Some s -> (not (Item.state_deleted s)) && Item.state_pattern s
  | None -> false

let obj_state t item =
  match state t item with
  | Some (Item.Obj o) -> Some o
  | Some (Item.Rel _) | None -> None

let rel_state t item =
  match state t item with
  | Some (Item.Rel r) -> Some r
  | Some (Item.Obj _) | None -> None

let items_of_ids t ids =
  List.filter_map (Db_state.find_item t.db_) ids

let find_object t name =
  match Db_state.find_id_by_name (extents t) name with
  | None -> None
  | Some id -> (
    match Db_state.find_item t.db_ id with
    | Some it when live t it -> Some it
    | Some _ | None -> None)

(* the live items among [ids], in id order *)
let live_items t ids =
  Ident.Set.fold
    (fun id acc ->
      match Db_state.find_item t.db_ id with
      | Some it when live_state (fetched_state t it) -> it :: acc
      | Some _ | None -> acc)
    ids []
  |> List.rev

let children t id = live_items t (Db_state.children_set t.db_ id)

let child t id ~role ?index () =
  children t id
  |> List.find_opt (fun (it : Item.t) ->
         match it.body with
         | Item.Dependent d ->
           String.equal d.role role
           && (match index with None -> true | Some i -> d.index = Some i)
         | Item.Independent | Item.Relationship -> false)

let rels t id = live_items t (Db_state.rels_set t.db_ id)

let inherits_of t item =
  match obj_state t item with Some o -> o.inherits | None -> []

let inheritors_of t id =
  match t.mode with
  | Current ->
    Ident.Set.elements (Db_state.inheritor_set t.db_ id)
    |> items_of_ids t
    |> List.filter (fun it ->
           live t it && List.exists (Ident.equal id) (inherits_of t it))
  | At _ ->
    Db_state.fold_items t.db_ ~init:[] ~f:(fun acc it ->
        if
          it.Item.body = Item.Independent
          && live t it
          && List.exists (Ident.equal id) (inherits_of t it)
        then it :: acc
        else acc)
    |> List.sort (fun (a : Item.t) b -> Ident.compare a.id b.id)

let transitive_patterns t item =
  let seen = ref Ident.Set.empty in
  let acc = ref [] in
  let rec go it =
    List.iter
      (fun pid ->
        if not (Ident.Set.mem pid !seen) then begin
          seen := Ident.Set.add pid !seen;
          match Db_state.find_item t.db_ pid with
          | Some p when live_pattern t p ->
            acc := p :: !acc;
            go p
          | Some _ | None -> ()
        end)
      (inherits_of t it)
  in
  go item;
  List.rev !acc

let rec full_name t (item : Item.t) =
  match item.body with
  | Item.Independent -> (
    match obj_state t item with
    | Some { name = Some n; deleted = false; _ } -> Some n
    | Some _ | None -> None)
  | Item.Relationship -> None
  | Item.Dependent { parent; _ } -> (
    match Db_state.find_item t.db_ parent with
    | None -> None
    | Some p -> (
      match full_name t p with
      | None -> None
      | Some pn ->
        if live t item then Some (pn ^ "." ^ Item.component item) else None))

let resolve_name t s =
  match Path.of_string s with
  | Error _ -> None
  | Ok path -> (
    match path with
    | [] -> None
    | root_comp :: rest ->
      if root_comp.Path.index <> None then None
      else
        let rec descend item = function
          | [] -> Some item
          | (c : Path.component) :: rest -> (
            match child t item.Item.id ~role:c.name ?index:c.index () with
            | Some k -> descend k rest
            | None -> None)
        in
        (match find_object t root_comp.Path.name with
        | Some obj -> descend obj rest
        | None -> None))

let class_path_of t item =
  match obj_state t item with Some o -> Some o.cls | None -> None

(* ------------------------------------------------------------------ *)
(* Pattern expansion                                                    *)
(* ------------------------------------------------------------------ *)

type vitem = { item : Item.t; via : (Ident.t * Ident.t) option }

type vrel = {
  rel : Item.t;
  endpoints : Ident.t list;
  via : (Ident.t * Ident.t) option;
}

let vitem_real item = { item; via = None }

let rec relative_components t (item : Item.t) ~root acc =
  (* path components from [root] (exclusive) down to [item] (inclusive) *)
  if Ident.equal item.id root then Some acc
  else
    match item.body with
    | Item.Dependent { parent; _ } -> (
      match Db_state.find_item t.db_ parent with
      | None -> None
      | Some p -> relative_components t p ~root (Item.component item :: acc))
    | Item.Independent | Item.Relationship -> None

let vitem_name t (vi : vitem) =
  match vi.via with
  | None -> full_name t vi.item
  | Some (pattern_root, inheritor) -> (
    match Db_state.find_item t.db_ inheritor with
    | None -> None
    | Some inh -> (
      match full_name t inh with
      | None -> None
      | Some base -> (
        match relative_components t vi.item ~root:pattern_root [] with
        | None -> None
        | Some [] -> Some base
        | Some comps -> Some (base ^ "." ^ String.concat "." comps))))

let children_v t (vi : vitem) =
  let own =
    List.map (fun it -> { item = it; via = vi.via }) (children t vi.item.Item.id)
  in
  match (vi.item.Item.body, vi.via) with
  | Item.Independent, None ->
    (* expansion point: a normal object pulls in the sub-trees of all its
       (transitively) inherited patterns *)
    let inherited =
      List.concat_map
        (fun (p : Item.t) ->
          List.map
            (fun it -> { item = it; via = Some (p.Item.id, vi.item.Item.id) })
            (children t p.Item.id))
        (transitive_patterns t vi.item)
    in
    if inherited = [] then own else own @ inherited
  | _ -> own

let child_v t (vi : vitem) ~role ?index () =
  children_v t vi
  |> List.find_opt (fun v ->
         match v.item.Item.body with
         | Item.Dependent d ->
           String.equal d.role role
           && (match index with None -> true | Some i -> d.index = Some i)
         | Item.Independent | Item.Relationship -> false)

let rels_v t (obj : Item.t) =
  let real =
    List.filter_map
      (fun (r : Item.t) ->
        match fetched_state t r with
        | Some (Item.Rel rs) when not rs.rel_pattern ->
          Some { rel = r; endpoints = rs.endpoints; via = None }
        | Some _ | None -> None)
      (rels t obj.Item.id)
  in
  let endpoint_visible e =
    match Option.bind (Db_state.find_item t.db_ e) (fetched_state t) with
    | Some s -> (not (Item.state_deleted s)) && not (Item.state_pattern s)
    | None -> false
  in
  let inherited =
    List.concat_map
      (fun (p : Item.t) ->
        List.filter_map
          (fun (r : Item.t) ->
            match fetched_state t r with
            | Some (Item.Rel rs) ->
              let endpoints =
                List.map
                  (fun e ->
                    if Ident.equal e p.Item.id then obj.Item.id else e)
                  rs.endpoints
              in
              let others =
                List.filter
                  (fun e -> not (Ident.equal e obj.Item.id))
                  endpoints
              in
              if List.for_all endpoint_visible others then
                Some { rel = r; endpoints; via = Some (p.Item.id, obj.Item.id) }
              else None
            | Some (Item.Obj _) | None -> None)
          (rels t p.Item.id))
      (transitive_patterns t obj)
  in
  if inherited = [] then real else real @ inherited

(* Enumeration reads the view's extents, so it is O(live) instead of
   O(all items ever). The id sets are deliberately trusted without a
   [live] re-check: if extent maintenance ever drifted, the equivalence
   tests would expose it rather than the drift being silently papered
   over. *)

let sorted_items_of_ids t ids =
  List.sort Ident.compare ids |> items_of_ids t

let all_objects t =
  Db_state.fold_obj_extents (extents t) List.cons [] |> sorted_items_of_ids t

let all_patterns t = Db_state.all_pattern_extent_ids (extents t) |> sorted_items_of_ids t
let all_rels t = Db_state.all_rel_extent_ids (extents t) |> sorted_items_of_ids t
