open Seed_util
open Seed_schema
open Seed_error

(* ------------------------------------------------------------------ *)
(* Counting helpers                                                     *)
(* ------------------------------------------------------------------ *)

let count_children_role view vi ~role =
  View.children_v view vi
  |> List.filter (fun (v : View.vitem) ->
         match v.item.Item.body with
         | Item.Dependent d -> String.equal d.role role
         | Item.Independent | Item.Relationship -> false)
  |> List.length

let count_participation view rels (obj : Item.t) ~assoc ~pos =
  let schema = View.schema view in
  List.fold_left
    (fun n (vr : View.vrel) ->
      match View.fetched_state view vr.rel with
      | Some (Item.Rel rs)
        when Schema.assoc_is_a schema ~sub:rs.assoc ~super:assoc
             && (match List.nth_opt vr.endpoints pos with
                | Some e -> Ident.equal e obj.Item.id
                | None -> false) ->
        n + 1
      | Some (Item.Rel _ | Item.Obj _) | None -> n)
    0 rels

let pattern_root_of view (item : Item.t) =
  let rec go (it : Item.t) =
    match it.body with
    | Item.Independent -> Some it
    | Item.Relationship -> None
    | Item.Dependent { parent; _ } -> (
      match Db_state.find_item (View.db view) parent with
      | Some p -> go p
      | None -> None)
  in
  go item

let has_normal_context view (item : Item.t) =
  match View.state view item with
  | None -> false
  | Some s ->
    if not (Item.state_pattern s) then true
    else
      let root =
        match item.body with
        | Item.Relationship ->
          (* a pattern relationship is checked through its pattern
             endpoints' inheritors *)
          None
        | Item.Independent | Item.Dependent _ -> pattern_root_of view item
      in
      let roots =
        match (root, item.body) with
        | Some r, _ -> [ r ]
        | None, Item.Relationship -> (
          match View.rel_state view item with
          | Some rs ->
            List.filter_map
              (fun e ->
                match Db_state.find_item (View.db view) e with
                | Some it when View.live_pattern view it -> Some it
                | Some _ | None -> None)
              rs.endpoints
          | None -> [])
        | None, _ -> []
      in
      let rec has_normal_inheritor seen (p : Item.t) =
        if Ident.Set.mem p.Item.id seen then false
        else
          let seen = Ident.Set.add p.Item.id seen in
          List.exists
            (fun (inh : Item.t) ->
              View.live_normal view inh
              || (View.live_pattern view inh && has_normal_inheritor seen inh))
            (View.inheritors_of view p.Item.id)
      in
      List.exists (has_normal_inheritor Ident.Set.empty) roots

(* Normal objects whose context exposes this pattern item — the contexts
   that must be re-validated when the pattern changes. *)
let normal_inheritor_contexts view (item : Item.t) =
  let rec collect seen acc (p : Item.t) =
    if Ident.Set.mem p.Item.id seen then (seen, acc)
    else
      let seen = Ident.Set.add p.Item.id seen in
      List.fold_left
        (fun (seen, acc) (inh : Item.t) ->
          if View.live_normal view inh then (seen, inh :: acc)
          else if View.live_pattern view inh then collect seen acc inh
          else (seen, acc))
        (seen, acc)
        (View.inheritors_of view p.Item.id)
  in
  let roots =
    match item.body with
    | Item.Independent | Item.Dependent _ -> (
      match pattern_root_of view item with Some r -> [ r ] | None -> [])
    | Item.Relationship -> (
      match View.rel_state view item with
      | Some rs ->
        List.filter_map
          (fun e ->
            match Db_state.find_item (View.db view) e with
            | Some it when View.live_pattern view it -> Some it
            | Some _ | None -> None)
          rs.endpoints
      | None -> [])
  in
  let _, contexts =
    List.fold_left
      (fun (seen, acc) r -> collect seen acc r)
      (Ident.Set.empty, []) roots
  in
  contexts

(* ------------------------------------------------------------------ *)
(* Primitive checks                                                     *)
(* ------------------------------------------------------------------ *)

let item_name_for_msg view (item : Item.t) =
  match View.full_name view item with
  | Some n -> n
  | None -> Ident.to_string item.Item.id

let obj_state_res view (item : Item.t) =
  match View.obj_state view item with
  | Some o -> Ok o
  | None -> fail (Unknown_item (Ident.to_string item.Item.id))

let rel_state_res view (item : Item.t) =
  match View.rel_state view item with
  | Some r -> Ok r
  | None -> fail (Unknown_item (Ident.to_string item.Item.id))

(* [element] and [subject] name the violation: built only on failure *)
let check_max ~element ~subject ~card count =
  if Cardinality.within_max card count then Ok ()
  else
    fail
      (Cardinality_violation
         {
           element = element ();
           subject = subject ();
           bound = "max " ^ Cardinality.to_string card;
           count;
         })

(* Would adding the directed edge (src → dst) close a cycle in the graph
   of relationships belonging to [assoc]'s subtree? Edges run from role
   position 0 to role position 1; inherited (virtual) relationships
   participate. *)
let creates_cycle view ~assoc ~src ~dst ~ignore_rel =
  if Ident.equal src dst then true
  else
    let schema = View.schema view in
    let db = View.db view in
    let visited = ref Ident.Set.empty in
    (* DFS from [dst] looking for [src] *)
    let rec dfs node =
      if Ident.equal node src then true
      else if Ident.Set.mem node !visited then false
      else begin
        visited := Ident.Set.add node !visited;
        match Db_state.find_item db node with
        | None -> false
        | Some obj ->
          let nexts =
            View.rels_v view obj
            |> List.filter_map (fun (vr : View.vrel) ->
                   match
                     (ignore_rel, View.rel_state view vr.View.rel)
                   with
                   | Some ig, _ when Ident.equal ig vr.View.rel.Item.id -> None
                   | _, Some rs
                     when Schema.assoc_is_a schema ~sub:rs.assoc ~super:assoc
                     -> (
                     match vr.View.endpoints with
                     | [ a; b ] when Ident.equal a node -> Some b
                     | _ -> None)
                   | _, (Some _ | None) -> None)
          in
          List.exists dfs nexts
      end
    in
    dfs dst

(* Maximum-cardinality participation checks for binding [obj] at position
   [pos] of association [assoc], counting the prospective relationship. *)
let check_participation_max view (obj : Item.t) ~assoc ~pos ~extra =
  let schema = View.schema view in
  let levels = assoc :: Schema.assoc_supers schema assoc in
  let rels = View.rels_v view obj in
  iter_result
    (fun level ->
      match Schema.find_assoc schema level with
      | None -> fail (Unknown_association level)
      | Some def ->
        let role = Assoc_def.nth_role def pos in
        let count = count_participation view rels obj ~assoc:level ~pos + extra in
        check_max
          ~element:(fun () -> level ^ "." ^ role.Assoc_def.role_name)
          ~subject:(fun () -> item_name_for_msg view obj)
          ~card:role.Assoc_def.card count)
    levels

(* ------------------------------------------------------------------ *)
(* Update preconditions                                                 *)
(* ------------------------------------------------------------------ *)

let check_new_object view ~cls ~name =
  let schema = View.schema view in
  let* def = Schema.find_class_res schema cls in
  let* () =
    if Class_def.is_top_level def then Ok ()
    else
      fail
        (Invalid_operation
           (cls ^ " is a sub-class; use create_sub_object for dependent objects"))
  in
  match View.find_object view name with
  | Some _ -> fail (Duplicate_name name)
  | None -> Ok ()

let check_new_sub_object view ~parent ~role ~index ~value =
  let schema = View.schema view in
  let* pstate = obj_state_res view parent in
  let* () =
    if View.live view parent then Ok ()
    else fail (Unknown_item (Ident.to_string parent.Item.id))
  in
  let* def = Schema.resolve_child schema ~cls:pstate.Item.cls ~role in
  let card = def.Class_def.card in
  let single = Cardinality.equal card Cardinality.one || Cardinality.equal card Cardinality.opt in
  let* () =
    match (single, index) with
    | true, Some _ ->
      fail
        (Invalid_operation
           (Printf.sprintf "role %s admits a single instance; no index allowed"
              role))
    | _ -> Ok ()
  in
  (* (role, index) uniqueness among the full (expanded) context *)
  let* () =
    match index with
    | None when not single -> Ok () (* auto-assigned by the caller *)
    | _ -> (
      let existing =
        View.child_v view (View.vitem_real parent) ~role ?index ()
      in
      match existing with
      | Some _ ->
        fail
          (Duplicate_name
             (item_name_for_msg view parent ^ "." ^ role
             ^ match index with
               | Some i -> Printf.sprintf "[%d]" i
               | None -> ""))
      | None -> Ok ())
  in
  (* maximum cardinality — a counting check, skipped for patterns with no
     normal context *)
  let* () =
    if has_normal_context view parent then
      let count = count_children_role view (View.vitem_real parent) ~role in
      check_max
        ~element:(fun () -> Class_def.name def)
        ~subject:(fun () -> item_name_for_msg view parent)
        ~card (count + 1)
    else Ok ()
  in
  (* value type — structural, always checked *)
  let* () =
    match (value, def.Class_def.content) with
    | None, _ -> Ok ()
    | Some _, None ->
      fail
        (Type_mismatch
           { expected = "no content for class " ^ Class_def.name def; got = "a value" })
    | Some v, Some ty -> Value.check ty v
  in
  Ok def

let check_new_relationship view ~assoc ~endpoints ~pattern =
  let schema = View.schema view in
  let* def = Schema.find_assoc_res schema assoc in
  let* () =
    if List.length endpoints = Assoc_def.arity def then Ok ()
    else
      fail
        (Invalid_operation
           (Printf.sprintf "association %s has arity %d, got %d endpoints" assoc
              (Assoc_def.arity def) (List.length endpoints)))
  in
  let indexed = List.mapi (fun i e -> (i, e)) endpoints in
  let* () =
    iter_result
      (fun (_, (e : Item.t)) ->
        match e.body with
        | Item.Independent ->
          if View.live view e then Ok ()
          else fail (Unknown_item (Ident.to_string e.id))
        | Item.Dependent _ | Item.Relationship ->
          fail
            (Invalid_operation
               "relationships connect independent objects only"))
      indexed
  in
  let any_pattern_endpoint =
    List.exists (fun (e : Item.t) -> View.live_pattern view e) endpoints
  in
  let* () =
    if any_pattern_endpoint && not pattern then
      fail
        (Pattern_violation
           "a relationship involving a pattern object must itself be a pattern")
    else Ok ()
  in
  (* membership — structural, always checked *)
  let* () =
    iter_result
      (fun (i, (e : Item.t)) ->
        let* es = obj_state_res view e in
        let role = Assoc_def.nth_role def i in
        if Schema.class_is_a schema ~sub:es.Item.cls ~super:role.Assoc_def.target
        then Ok ()
        else
          fail
            (Membership_violation
               {
                 expected = role.Assoc_def.target;
                 got = es.Item.cls;
                 context = assoc ^ "." ^ role.Assoc_def.role_name;
               }))
      indexed
  in
  (* counting checks apply to normal relationships only *)
  let* () =
    if pattern then Ok ()
    else
      iter_result
        (fun (i, e) -> check_participation_max view e ~assoc ~pos:i ~extra:1)
        indexed
  in
  let* () =
    if pattern then Ok ()
    else
      let levels = assoc :: Schema.assoc_supers schema assoc in
      iter_result
        (fun level ->
          match Schema.find_assoc schema level with
          | Some d when d.Assoc_def.acyclic -> (
            match endpoints with
            | [ a; b ] ->
              if
                creates_cycle view ~assoc:level ~src:a.Item.id ~dst:b.Item.id
                  ~ignore_rel:None
              then fail (Cycle_detected level)
              else Ok ()
            | _ -> Ok ())
          | Some _ | None -> Ok ())
        levels
  in
  Ok def

let check_set_value view (item : Item.t) value =
  let schema = View.schema view in
  let* st = obj_state_res view item in
  let* () =
    if View.live view item then Ok ()
    else fail (Unknown_item (Ident.to_string item.Item.id))
  in
  let* def = Schema.find_class_res schema st.Item.cls in
  match (value, def.Class_def.content) with
  | None, _ -> Ok ()
  | Some _, None ->
    fail
      (Type_mismatch
         { expected = "no content for class " ^ st.Item.cls; got = "a value" })
  | Some v, Some ty -> Value.check ty v

let check_set_rel_attr view (item : Item.t) name value =
  let schema = View.schema view in
  let* rs = rel_state_res view item in
  let* () =
    if View.live view item then Ok ()
    else fail (Unknown_item (Ident.to_string item.Item.id))
  in
  let* decl = Schema.resolve_attr schema ~assoc:rs.Item.assoc ~attr:name in
  match value with
  | None -> Ok ()
  | Some v -> Value.check decl.Assoc_def.attr_type v

let check_rename view (item : Item.t) new_name =
  let* st = obj_state_res view item in
  let* () =
    match (item.body, st.Item.name) with
    | Item.Independent, Some _ -> Ok ()
    | _ -> fail (Invalid_operation "only independent objects can be renamed")
  in
  if String.equal new_name "" then
    fail (Invalid_operation "object names must be non-empty")
  else
    match View.find_object view new_name with
    | Some other when not (Ident.equal other.Item.id item.Item.id) ->
      fail (Duplicate_name new_name)
    | Some _ | None -> Ok ()

(* every live (real) sub-object role of [item] must resolve identically
   under class [cls] *)
let check_children_fit view (item : Item.t) ~cls =
  let schema = View.schema view in
  iter_result
    (fun (child : Item.t) ->
      match (child.body, View.obj_state view child) with
      | Item.Dependent { role; _ }, Some cst -> (
        match Schema.resolve_child schema ~cls ~role with
        | Ok def when String.equal (Class_def.name def) cst.Item.cls -> Ok ()
        | Ok def ->
          fail
            (Membership_violation
               {
                 expected = Class_def.name def;
                 got = cst.Item.cls;
                 context =
                   Printf.sprintf "sub-object %s under re-classified %s" role
                     cls;
               })
        | Error _ ->
          fail
            (Membership_violation
               {
                 expected = cls ^ "." ^ role;
                 got = cst.Item.cls;
                 context = "sub-object does not exist in target class";
               }))
      | _ -> Ok ())
    (View.children view item.Item.id)

let check_reclassify_object view (item : Item.t) ~to_ =
  let schema = View.schema view in
  let* st = obj_state_res view item in
  let* () =
    if item.body = Item.Independent then Ok ()
    else
      fail
        (Invalid_operation
           "only independent objects can be re-classified (sub-objects follow \
            their class definition)")
  in
  let* () =
    if View.live view item then Ok ()
    else fail (Unknown_item (Ident.to_string item.Item.id))
  in
  let* def = Schema.find_class_res schema to_ in
  let* () =
    if Class_def.is_top_level def then Ok ()
    else fail (Invalid_operation (to_ ^ " is a sub-class"))
  in
  let* () =
    if Schema.same_class_hierarchy schema st.Item.cls to_ then Ok ()
    else fail (Not_in_generalization { item_class = st.Item.cls; target = to_ })
  in
  let* () = check_children_fit view item ~cls:to_ in
  (* inherited pattern children must also fit the new class *)
  let* () =
    iter_result
      (fun (p : Item.t) -> check_children_fit view p ~cls:to_)
      (View.transitive_patterns view item)
  in
  (* every relationship the object takes part in must still accept it *)
  let* () =
    iter_result
      (fun (vr : View.vrel) ->
        match View.rel_state view vr.View.rel with
        | None -> Ok ()
        | Some rs ->
          let* rdef = Schema.find_assoc_res schema rs.Item.assoc in
          iter_result
            (fun (i, e) ->
              if not (Ident.equal e item.Item.id) then Ok ()
              else
                let role = Assoc_def.nth_role rdef i in
                if Schema.class_is_a schema ~sub:to_ ~super:role.Assoc_def.target
                then Ok ()
                else
                  fail
                    (Membership_violation
                       {
                         expected = role.Assoc_def.target;
                         got = to_;
                         context =
                           rs.Item.assoc ^ "." ^ role.Assoc_def.role_name;
                       }))
            (List.mapi (fun i e -> (i, e)) vr.View.endpoints))
      (View.rels_v view item)
  in
  Ok ()

let check_reclassify_rel view (item : Item.t) ~to_ =
  let schema = View.schema view in
  let* rs = rel_state_res view item in
  let* () =
    if View.live view item then Ok ()
    else fail (Unknown_item (Ident.to_string item.Item.id))
  in
  let* def = Schema.find_assoc_res schema to_ in
  let* () =
    if Schema.same_assoc_hierarchy schema rs.Item.assoc to_ then Ok ()
    else fail (Not_in_generalization { item_class = rs.Item.assoc; target = to_ })
  in
  let db = View.db view in
  let endpoints =
    List.filter_map (Db_state.find_item db) rs.Item.endpoints
  in
  (* membership under the new roles *)
  let* () =
    iter_result
      (fun (i, (e : Item.t)) ->
        let* es = obj_state_res view e in
        let role = Assoc_def.nth_role def i in
        if Schema.class_is_a schema ~sub:es.Item.cls ~super:role.Assoc_def.target
        then Ok ()
        else
          fail
            (Membership_violation
               {
                 expected = role.Assoc_def.target;
                 got = es.Item.cls;
                 context = to_ ^ "." ^ role.Assoc_def.role_name;
               }))
      (List.mapi (fun i e -> (i, e)) endpoints)
  in
  (* every defined attribute must remain declared (with a compatible
     type) under the new classification: generalizing a Write with a
     NumberOfWrites to Access is refused until the attribute is
     undefined *)
  let* () =
    iter_result
      (fun (n, v) ->
        let* decl = Schema.resolve_attr schema ~assoc:to_ ~attr:n in
        Value.check decl.Assoc_def.attr_type v)
      rs.Item.rel_attrs
  in
  if rs.Item.rel_pattern && not (has_normal_context view item) then Ok ()
  else
    (* participation maxima under the new classification: levels of the
       new chain that the old chain did not already cover gain one *)
    let old_levels = rs.Item.assoc :: Schema.assoc_supers schema rs.Item.assoc in
    let* () =
      iter_result
        (fun (i, (e : Item.t)) ->
          let levels = to_ :: Schema.assoc_supers schema to_ in
          let rels = lazy (View.rels_v view e) in
          iter_result
            (fun level ->
              if List.exists (String.equal level) old_levels then Ok ()
              else
                match Schema.find_assoc schema level with
                | None -> fail (Unknown_association level)
                | Some d ->
                  let role = Assoc_def.nth_role d i in
                  let count =
                    count_participation view (Lazy.force rels) e ~assoc:level ~pos:i + 1
                  in
                  check_max
                    ~element:(fun () -> level ^ "." ^ role.Assoc_def.role_name)
                    ~subject:(fun () -> item_name_for_msg view e)
                    ~card:role.Assoc_def.card count)
            levels)
        (List.mapi (fun i e -> (i, e)) endpoints)
    in
    (* acyclicity on any newly-entered acyclic level *)
    let levels = to_ :: Schema.assoc_supers schema to_ in
    iter_result
      (fun level ->
        if List.exists (String.equal level) old_levels then Ok ()
        else
          match Schema.find_assoc schema level with
          | Some d when d.Assoc_def.acyclic -> (
            match rs.Item.endpoints with
            | [ a; b ] ->
              if
                creates_cycle view ~assoc:level ~src:a ~dst:b
                  ~ignore_rel:(Some item.Item.id)
              then fail (Cycle_detected level)
              else Ok ()
            | _ -> Ok ())
          | Some _ | None -> Ok ())
      levels

(* Full-context validation of one normal object: children counts per
   role, (role, index) uniqueness, membership of inherited children,
   participation maxima, acyclicity of its incident edges. The expanded
   relationship set is built once and shared by the last two. *)
let check_inheritor_context view (obj : Item.t) =
  let schema = View.schema view in
  let* st = obj_state_res view obj in
  let subject () = item_name_for_msg view obj in
  (* the expanded children, grouped into runs of one role *)
  let by_role =
    List.filter_map
      (fun (v : View.vitem) ->
        match v.item.Item.body with
        | Item.Dependent d -> Some (d.role, d.index, v.View.item)
        | Item.Independent | Item.Relationship -> None)
      (View.children_v view (View.vitem_real obj))
    |> List.stable_sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  let has_dup indices =
    let rec dup = function
      | a :: (b :: _ as rest) -> a = b || dup rest
      | [ _ ] | [] -> false
    in
    dup (List.sort compare indices)
  in
  (* one run of [by_role] per role: membership of each child (inherited
     ones may come from an incompatible pattern class), the maximum
     cardinality over the expanded context, then (role, index)
     collisions between own and inherited *)
  let rec check_runs = function
    | [] -> Ok ()
    | (role, _, _) :: _ as l ->
      let* def = Schema.resolve_child schema ~cls:st.Item.cls ~role in
      let def_name = Class_def.name def in
      let rec run count indices = function
        | (r, index, item) :: rest when String.equal r role -> (
          match View.fetched_state view item with
          | Some (Item.Obj cst) when not (String.equal cst.Item.cls def_name) ->
            fail
              (Membership_violation
                 {
                   expected = def_name;
                   got = cst.Item.cls;
                   context = Printf.sprintf "context of %s" (subject ());
                 })
          | Some (Item.Obj _ | Item.Rel _) | None -> run (count + 1) (index :: indices) rest)
        | rest ->
          let* () =
            check_max ~element:(fun () -> def_name) ~subject ~card:def.Class_def.card count
          in
          if has_dup indices then
            fail
              (Pattern_violation
                 (Printf.sprintf
                    "inherited sub-objects collide with own ones at role %s of %s" role
                    (subject ())))
          else check_runs rest
      in
      run 0 [] l
  in
  let* () = check_runs by_role in
  let rels = View.rels_v view obj in
  (* participation maxima over the expanded relationship set *)
  let* () =
    iter_result
      (fun (def, pos, (role : Assoc_def.role)) ->
        check_max
          ~element:(fun () -> def.Assoc_def.name ^ "." ^ role.Assoc_def.role_name)
          ~subject ~card:role.Assoc_def.card
          (count_participation view rels obj ~assoc:def.Assoc_def.name ~pos))
      (Schema.participation_constraints schema ~cls:st.Item.cls)
  in
  (* acyclicity of incident virtual/real edges *)
  iter_result
    (fun (vr : View.vrel) ->
      match View.fetched_state view vr.View.rel with
      | Some (Item.Obj _) | None -> Ok ()
      | Some (Item.Rel rs) ->
        let levels = rs.Item.assoc :: Schema.assoc_supers schema rs.Item.assoc in
        iter_result
          (fun level ->
            match Schema.find_assoc schema level with
            | Some d when d.Assoc_def.acyclic -> (
              match vr.View.endpoints with
              | [ a; b ] ->
                (* the edge is already present; a cycle exists iff b
                   reaches a without using this very edge *)
                if
                  creates_cycle view ~assoc:level ~src:a ~dst:b
                    ~ignore_rel:(Some vr.View.rel.Item.id)
                then fail (Cycle_detected level)
                else Ok ()
              | _ -> Ok ())
            | Some _ | None -> Ok ())
          levels)
    rels

let check_inheritance view ~pattern ~inheritor =
  let* pst = obj_state_res view pattern in
  let* ist = obj_state_res view inheritor in
  let* () =
    if pattern.Item.body = Item.Independent && pst.Item.pattern then Ok ()
    else fail (Pattern_violation "only independent pattern objects can be inherited")
  in
  let* () =
    if View.live view pattern && View.live view inheritor then Ok ()
    else fail (Pattern_violation "pattern and inheritor must be live")
  in
  let* () =
    if inheritor.Item.body = Item.Independent then Ok ()
    else fail (Pattern_violation "only independent objects can inherit patterns")
  in
  let* () =
    if List.exists (Ident.equal pattern.Item.id) ist.Item.inherits then
      fail (Pattern_violation "pattern already inherited")
    else Ok ()
  in
  (* cycle through the inherits relation *)
  let* () =
    if Ident.equal pattern.Item.id inheritor.Item.id then
      fail (Pattern_violation "an item cannot inherit itself")
    else if
      List.exists
        (fun (p : Item.t) -> Ident.equal p.Item.id inheritor.Item.id)
        (View.transitive_patterns view pattern)
    then fail (Pattern_violation "inheritance cycle")
    else Ok ()
  in
  (* a normal inheritor's combined context must be consistent; check by
     simulation: contexts are dynamic, so validating the inheritor after
     the (tentative) link is what Database does — here we validate the
     pattern's pieces against the inheritor's class *)
  if ist.Item.pattern then Ok ()
  else
    let schema = View.schema view in
    let* () = check_children_fit view pattern ~cls:ist.Item.cls in
    iter_result
      (fun (r : Item.t) ->
        match View.rel_state view r with
        | None -> Ok ()
        | Some rs ->
          let* rdef = Schema.find_assoc_res schema rs.Item.assoc in
          iter_result
            (fun (i, e) ->
              if not (Ident.equal e pattern.Item.id) then Ok ()
              else
                let role = Assoc_def.nth_role rdef i in
                if
                  Schema.class_is_a schema ~sub:ist.Item.cls
                    ~super:role.Assoc_def.target
                then Ok ()
                else
                  fail
                    (Membership_violation
                       {
                         expected = role.Assoc_def.target;
                         got = ist.Item.cls;
                         context =
                           Printf.sprintf "inherited relationship %s"
                             rs.Item.assoc;
                       }))
            (List.mapi (fun i e -> (i, e)) rs.Item.endpoints))
      (View.rels view pattern.Item.id)

let check_delete view (item : Item.t) =
  let* () =
    if View.live view item then Ok ()
    else fail (Unknown_item (Ident.to_string item.Item.id))
  in
  match View.state view item with
  | Some s when Item.state_pattern s && item.Item.body = Item.Independent -> (
    match View.inheritors_of view item.Item.id with
    | [] -> Ok ()
    | inh :: _ ->
      fail
        (Pattern_violation
           (Printf.sprintf "pattern is inherited by %s; remove inheritance first"
              (item_name_for_msg view inh))))
  | Some _ -> Ok ()
  | None -> fail (Unknown_item (Ident.to_string item.Item.id))

let check_database view =
  let db = View.db view in
  let schema = View.schema view in
  let state = View.fetched_state view in
  let check_item (item : Item.t) = function
    | None -> Ok ()
    | Some s when Item.state_deleted s -> Ok ()
    | Some (Item.Obj o) -> (
      let valid =
        match (Schema.find_class schema o.Item.cls, o.Item.value) with
        | None, _ -> fail (Unknown_class o.Item.cls)
        | Some _, None -> Ok ()
        | Some { Class_def.content = None; _ }, Some _ ->
          fail (Type_mismatch { expected = "no content for " ^ o.Item.cls; got = "a value" })
        | Some { Class_def.content = Some ty; _ }, Some v -> Value.check ty v
      in
      match valid with
      | Ok () when item.Item.body = Item.Independent && not o.Item.pattern ->
        check_inheritor_context view item
      | Ok () | Error _ -> valid)
    | Some (Item.Rel r) ->
      let* def = Schema.find_assoc_res schema r.Item.assoc in
      let* () =
        if List.length r.Item.endpoints = Assoc_def.arity def then Ok ()
        else fail (Invalid_operation ("arity mismatch in " ^ r.Item.assoc))
      in
      let* () =
        iter_result
          (fun (n, value) ->
            let* decl = Schema.resolve_attr schema ~assoc:r.Item.assoc ~attr:n in
            Value.check decl.Assoc_def.attr_type value)
          r.Item.rel_attrs
      in
      let rec endpoints i = function
        | [] -> Ok ()
        | e :: rest -> (
          match Option.bind (Db_state.find_item db e) state with
          | Some (Item.Obj es) ->
            let role = Assoc_def.nth_role def i in
            if Schema.class_is_a schema ~sub:es.Item.cls ~super:role.Assoc_def.target then
              endpoints (i + 1) rest
            else
              fail
                (Membership_violation
                   {
                     expected = role.Assoc_def.target;
                     got = es.Item.cls;
                     context = r.Item.assoc ^ "." ^ role.Assoc_def.role_name;
                   })
          | Some (Item.Rel _) | None -> fail (Unknown_item (Ident.to_string e)))
      in
      if r.Item.rel_pattern then Ok () else endpoints 0 r.Item.endpoints
  in
  (* [check_item] skips non-live items, so the view's extents already
     enumerate everything that can fail a check; the first failure is
     the answer *)
  Db_state.fold_live_ids (View.extents view)
    (fun id acc ->
      match (acc, Db_state.find_item db id) with
      | Ok (), Some item -> check_item item (state item)
      | Ok (), None | Error _, _ -> acc)
    (Ok ())
