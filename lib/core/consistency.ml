open Seed_util
open Seed_schema
open Seed_error

(* Every rule below raises [Refused] at its first violation; each
   exported check is one [run] boundary that turns it into a result. *)
exception Refused of Seed_error.t

let refuse e = raise_notrace (Refused e)
let ok = function Ok v -> v | Error e -> refuse e
let run f = match f () with v -> Ok v | exception Refused e -> fail e

(* ------------------------------------------------------------------ *)
(* Counting helpers                                                     *)
(* ------------------------------------------------------------------ *)

let count_role kids ~role =
  List.fold_left
    (fun n (v : View.vitem) ->
      match v.item.Item.body with
      | Item.Dependent d when String.equal d.role role -> n + 1
      | Item.Dependent _ | Item.Independent | Item.Relationship -> n)
    0 kids

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

(* ------------------------------------------------------------------ *)
(* Pattern contexts                                                     *)
(* ------------------------------------------------------------------ *)

(* The patterns whose inheritors see [item]: the independent ancestor
   of an object, or a pattern relationship's live pattern endpoints. *)
let rec pattern_roots view (item : Item.t) =
  match item.body with
  | Item.Independent -> [ item ]
  | Item.Dependent { parent; _ } -> (
    match Db_state.find_item (View.db view) parent with
    | Some p -> pattern_roots view p
    | None -> [])
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

(* Applies [f] to the live normal objects whose context exposes [item]
   — the inheritors of its pattern roots, reached through pattern
   inheritors — until [f] answers true. *)
let exists_normal_inheritor view item f =
  let seen = ref Ident.Set.empty in
  let rec walk (p : Item.t) =
    (not (Ident.Set.mem p.Item.id !seen))
    && begin
         seen := Ident.Set.add p.Item.id !seen;
         List.exists
           (fun inh ->
             if View.live_normal view inh then f inh
             else View.live_pattern view inh && walk inh)
           (View.inheritors_of view p.Item.id)
       end
  in
  List.exists walk (pattern_roots view item)

(* Counting checks apply to a normal item, and to a pattern item that
   some normal object's context exposes. *)
let has_normal_context view (item : Item.t) =
  match View.state view item with
  | None -> false
  | Some s ->
    (not (Item.state_pattern s)) || exists_normal_inheritor view item (fun _ -> true)

let normal_inheritor_contexts view item =
  let contexts = ref [] in
  ignore
    (exists_normal_inheritor view item (fun inh ->
         contexts := inh :: !contexts;
         false));
  !contexts

(* ------------------------------------------------------------------ *)
(* Rules                                                                *)
(* ------------------------------------------------------------------ *)

let item_name_for_msg view (item : Item.t) =
  match View.full_name view item with
  | Some n -> n
  | None -> Ident.to_string item.Item.id

let independent (item : Item.t) =
  match item.body with
  | Item.Independent -> true
  | Item.Dependent _ | Item.Relationship -> false

let find_class schema cls =
  match Schema.find_class schema cls with
  | Some def -> def
  | None -> refuse (Unknown_class cls)

let find_assoc schema assoc =
  match Schema.find_assoc schema assoc with
  | Some def -> def
  | None -> refuse (Unknown_association assoc)

(* an association and its generalizations, nearest first *)
let levels schema assoc = assoc :: Schema.assoc_supers schema assoc

(* Require live: an item the view has no live state for is unknown. *)
let unknown id = refuse (Unknown_item (Ident.to_string id))
let require_live view (item : Item.t) =
  if not (View.live view item) then unknown item.Item.id

let obj_state view (item : Item.t) =
  match View.obj_state view item with Some o -> o | None -> unknown item.Item.id

let live_obj view (item : Item.t) =
  match View.state view item with
  | Some (Item.Obj o) when not o.deleted -> o
  | Some (Item.Obj _ | Item.Rel _) | None -> unknown item.Item.id

let live_rel view (item : Item.t) =
  match View.state view item with
  | Some (Item.Rel r) when not r.rel_deleted -> r
  | Some (Item.Obj _ | Item.Rel _) | None -> unknown item.Item.id

(* Independent objects are classified by top-level classes only. *)
let require_top_level schema cls =
  let def = find_class schema cls in
  if not (Class_def.is_top_level def) then
    refuse
      (Invalid_operation
         (cls ^ " is a sub-class; independent objects take a top-level class"))

(* An object name is non-empty and names no other object. *)
let name_free view ?self name =
  if String.equal name "" then
    refuse (Invalid_operation "object names must be non-empty");
  match View.find_object view name with
  | Some other
    when (match self with Some id -> not (Ident.equal id other.Item.id) | None -> true) ->
    refuse (Duplicate_name name)
  | Some _ | None -> ()

(* Value fits content: only a class with content holds a value, of its
   content type. *)
let value_fits_content (def : Class_def.t) = function
  | None -> ()
  | Some v -> (
    match def.content with
    | Some ty -> ok (Value.check ty v)
    | None ->
      refuse
        (Type_mismatch
           { expected = "no content for class " ^ Class_def.name def; got = "a value" }))

(* Attribute fits declaration: the association declares it, with the
   value's type. *)
let attr_fits schema ~assoc name value =
  let decl = ok (Schema.resolve_attr schema ~assoc ~attr:name) in
  match value with Some v -> ok (Value.check decl.Assoc_def.attr_type v) | None -> ()

(* Arity: one endpoint per role. *)
let arity_fits (def : Assoc_def.t) endpoints =
  let n = List.length endpoints in
  if n <> Assoc_def.arity def then
    refuse
      (Invalid_operation
         (Printf.sprintf "association %s has arity %d, got %d endpoints" def.name
            (Assoc_def.arity def) n))

(* Endpoint fits role: an object of class [cls] may stand at position
   [pos] of [def]. *)
let endpoint_fits_role schema (def : Assoc_def.t) pos ~cls =
  let role = Assoc_def.nth_role def pos in
  if not (Schema.class_is_a schema ~sub:cls ~super:role.target) then
    refuse
      (Membership_violation
         { expected = role.target; got = cls; context = def.name ^ "." ^ role.role_name })

let endpoints_fit view def ids =
  List.iteri
    (fun pos id ->
      match View.state_of_id view id with
      | Some (Item.Obj es) -> endpoint_fits_role (View.schema view) def pos ~cls:es.cls
      | Some (Item.Rel _) | None -> unknown id)
    ids

(* The positions where [id] stands among a relationship's [endpoints]
   accept an object of class [cls]. *)
let bindings_fit view (rs : Item.rel_state) endpoints ~id ~cls =
  let schema = View.schema view in
  let def = find_assoc schema rs.assoc in
  List.iteri
    (fun pos e -> if Ident.equal e id then endpoint_fits_role schema def pos ~cls)
    endpoints

(* Child fits class: a sub-object of class [got] at [role] of a [cls]
   object is of the class the role resolves to ([expected]; [None] when
   [cls] has no such role). *)
let child_fits_class ~cls ~role ~got ~context = function
  | Some expected when String.equal expected got -> ()
  | Some expected -> refuse (Membership_violation { expected; got; context = context () })
  | None ->
    refuse
      (Membership_violation
         {
           expected = cls ^ "." ^ role;
           got;
           context = "sub-object does not exist in target class";
         })

(* every live sub-object of [item] fits its role under class [cls] *)
let children_fit view (item : Item.t) ~cls =
  let schema = View.schema view in
  List.iter
    (fun (child : Item.t) ->
      match (child.body, View.obj_state view child) with
      | Item.Dependent { role; _ }, Some cst ->
        child_fits_class ~cls ~role ~got:cst.cls
          ~context:(fun () ->
            Printf.sprintf "sub-object %s under re-classified %s" role cls)
          (match Schema.resolve_child schema ~cls ~role with
          | Ok def -> Some (Class_def.name def)
          | Error _ -> None)
      | _ -> ())
    (View.children view item.Item.id)

(* [element] and [subject] name the violation: built only on failure *)
let check_max ~element ~subject ~card count =
  if not (Cardinality.within_max card count) then
    refuse
      (Cardinality_violation
         {
           element = element ();
           subject = subject ();
           bound = "max " ^ Cardinality.to_string card;
           count;
         })

(* Children within maximum: [count] sub-objects of class [def]. *)
let children_within_max (def : Class_def.t) ~subject count =
  check_max ~element:(fun () -> Class_def.name def) ~subject ~card:def.card count

(* Participation within maximum: [obj] at role [pos] of [def], among
   [rels] (its {!View.rels_v}) and [extra] prospective relationships. *)
let participation_within_max view rels obj (def : Assoc_def.t) ~pos ~extra =
  let role = Assoc_def.nth_role def pos in
  check_max
    ~element:(fun () -> def.name ^ "." ^ role.role_name)
    ~subject:(fun () -> item_name_for_msg view obj)
    ~card:role.card
    (count_participation view rels obj ~assoc:def.name ~pos + extra)

(* a prospective relationship binding [endpoints] at each of [levels] *)
let endpoints_within_max view ~levels endpoints =
  if levels <> [] then
    List.iteri
      (fun pos (e : Item.t) ->
        let rels = View.rels_v view e in
        List.iter
          (fun level ->
            participation_within_max view rels e (find_assoc (View.schema view) level)
              ~pos ~extra:1)
          levels)
      endpoints

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

(* ACYCLIC: the binary edge [endpoints] closes no cycle at any acyclic
   level of [levels]. An edge already present passes itself as
   [ignore_rel]: a cycle exists iff its target reaches its source
   without it. *)
let acyclic view ~levels ~ignore_rel = function
  | [ src; dst ] ->
    let schema = View.schema view in
    List.iter
      (fun level ->
        match Schema.find_assoc schema level with
        | Some d
          when d.Assoc_def.acyclic
               && creates_cycle view ~assoc:level ~src ~dst ~ignore_rel ->
          refuse (Cycle_detected level)
        | Some _ | None -> ())
      levels
  | _ -> ()

(* Full-context validation of one normal object: per role of its
   expanded children, membership (inherited ones may come from an
   incompatible pattern class), the maximum cardinality and (role,
   index) collisions between own and inherited; then participation
   maxima and acyclicity over its expanded relationship set. *)
let inheritor_context view (obj : Item.t) =
  let schema = View.schema view in
  let st = obj_state view obj in
  let subject () = item_name_for_msg view obj in
  let context () = Printf.sprintf "context of %s" (subject ()) in
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
  let rec check_runs = function
    | [] -> ()
    | (role, _, _) :: _ as l ->
      let def = ok (Schema.resolve_child schema ~cls:st.cls ~role) in
      let expected = Some (Class_def.name def) in
      let rec run count indices = function
        | (r, index, item) :: rest when String.equal r role ->
          (match View.fetched_state view item with
          | Some (Item.Obj cst) ->
            child_fits_class ~cls:st.cls ~role ~got:cst.cls ~context expected
          | Some (Item.Rel _) | None -> ());
          run (count + 1) (index :: indices) rest
        | rest ->
          children_within_max def ~subject count;
          if has_dup indices then
            refuse
              (Pattern_violation
                 (Printf.sprintf
                    "inherited sub-objects collide with own ones at role %s of %s" role
                    (subject ())));
          check_runs rest
      in
      run 0 [] l
  in
  check_runs by_role;
  let rels = View.rels_v view obj in
  List.iter
    (fun (def, pos, _) -> participation_within_max view rels obj def ~pos ~extra:0)
    (Schema.participation_constraints schema ~cls:st.cls);
  List.iter
    (fun (vr : View.vrel) ->
      match View.fetched_state view vr.View.rel with
      | Some (Item.Rel rs) ->
        acyclic view ~levels:(levels schema rs.assoc)
          ~ignore_rel:(Some vr.View.rel.Item.id) vr.View.endpoints
      | Some (Item.Obj _) | None -> ())
    rels

(* ------------------------------------------------------------------ *)
(* Update preconditions                                                 *)
(* ------------------------------------------------------------------ *)

let check_new_object view ~cls ~name =
  run (fun () ->
      require_top_level (View.schema view) cls;
      name_free view name)

let check_new_sub_object view ~parent ~role ~index ~value =
  run (fun () ->
      let pstate = live_obj view parent in
      let def = ok (Schema.resolve_child (View.schema view) ~cls:pstate.cls ~role) in
      let card = def.Class_def.card in
      let single =
        Cardinality.equal card Cardinality.one || Cardinality.equal card Cardinality.opt
      in
      if single && Option.is_some index then
        refuse
          (Invalid_operation
             (Printf.sprintf "role %s admits a single instance; no index allowed" role));
      (* (role, index) uniqueness among the full (expanded) context; an
         absent index of a multi-valued role is assigned by the caller *)
      if (single || Option.is_some index)
         && Option.is_some (View.child_v view (View.vitem_real parent) ~role ?index ())
      then
        refuse
          (Duplicate_name
             (item_name_for_msg view parent ^ "." ^ role
             ^ match index with Some i -> Printf.sprintf "[%d]" i | None -> ""));
      (* the maximum is a counting check, skipped for patterns with no
         normal context; the value type is structural, always checked *)
      if has_normal_context view parent then
        children_within_max def
          ~subject:(fun () -> item_name_for_msg view parent)
          (count_role (View.children_v view (View.vitem_real parent)) ~role + 1);
      value_fits_content def value;
      def)

let check_new_relationship view ~assoc ~endpoints ~pattern =
  run (fun () ->
      let schema = View.schema view in
      let def = find_assoc schema assoc in
      arity_fits def endpoints;
      List.iter
        (fun (e : Item.t) ->
          if independent e then require_live view e
          else
            refuse (Invalid_operation "relationships connect independent objects only"))
        endpoints;
      if (not pattern) && List.exists (View.live_pattern view) endpoints then
        refuse
          (Pattern_violation
             "a relationship involving a pattern object must itself be a pattern");
      let ids = List.map (fun (e : Item.t) -> e.Item.id) endpoints in
      endpoints_fit view def ids;
      (* counting checks apply to normal relationships only *)
      if not pattern then begin
        let levels = levels schema assoc in
        endpoints_within_max view ~levels endpoints;
        acyclic view ~levels ~ignore_rel:None ids
      end;
      def)

let check_set_value view item value =
  run (fun () ->
      let st = live_obj view item in
      value_fits_content (find_class (View.schema view) st.cls) value)

let check_set_rel_attr view item name value =
  run (fun () ->
      let rs = live_rel view item in
      attr_fits (View.schema view) ~assoc:rs.assoc name value)

let check_rename view (item : Item.t) new_name =
  run (fun () ->
      let st = obj_state view item in
      if not (independent item && Option.is_some st.name) then
        refuse (Invalid_operation "only independent objects can be renamed");
      name_free view ~self:item.Item.id new_name)

let check_reclassify_object view (item : Item.t) ~to_ =
  run (fun () ->
      let schema = View.schema view in
      let st = obj_state view item in
      if not (independent item) then
        refuse
          (Invalid_operation
             "only independent objects can be re-classified (sub-objects follow \
              their class definition)");
      require_live view item;
      require_top_level schema to_;
      if not (Schema.same_class_hierarchy schema st.cls to_) then
        refuse (Not_in_generalization { item_class = st.cls; target = to_ });
      (* its own and its inherited pattern children must fit the new
         class, and every relationship it takes part in must accept it *)
      List.iter
        (fun p -> children_fit view p ~cls:to_)
        (item :: View.transitive_patterns view item);
      List.iter
        (fun (vr : View.vrel) ->
          Option.iter
            (fun rs -> bindings_fit view rs vr.View.endpoints ~id:item.Item.id ~cls:to_)
            (View.rel_state view vr.View.rel))
        (View.rels_v view item))

let check_reclassify_rel view (item : Item.t) ~to_ =
  run (fun () ->
      let schema = View.schema view in
      let rs = live_rel view item in
      let def = find_assoc schema to_ in
      if not (Schema.same_assoc_hierarchy schema rs.assoc to_) then
        refuse (Not_in_generalization { item_class = rs.assoc; target = to_ });
      endpoints_fit view def rs.endpoints;
      (* every defined attribute must remain declared (with a compatible
         type) under the new classification: generalizing a Write with a
         NumberOfWrites to Access is refused until the attribute is
         undefined *)
      List.iter (fun (n, v) -> attr_fits schema ~assoc:to_ n (Some v)) rs.rel_attrs;
      if (not rs.rel_pattern) || has_normal_context view item then begin
        (* the levels of the new chain that the old chain did not cover
           gain this relationship *)
        let old_levels = levels schema rs.assoc in
        let entered =
          List.filter
            (fun l -> not (List.exists (String.equal l) old_levels))
            (levels schema to_)
        in
        endpoints_within_max view ~levels:entered
          (List.filter_map (Db_state.find_item (View.db view)) rs.endpoints);
        acyclic view ~levels:entered ~ignore_rel:(Some item.Item.id) rs.endpoints
      end)

let check_inheritance view ~pattern ~inheritor =
  run (fun () ->
      let pst = obj_state view pattern in
      let ist = obj_state view inheritor in
      if not (independent pattern && pst.pattern) then
        refuse (Pattern_violation "only independent pattern objects can be inherited");
      if not (View.live view pattern && View.live view inheritor) then
        refuse (Pattern_violation "pattern and inheritor must be live");
      if not (independent inheritor) then
        refuse (Pattern_violation "only independent objects can inherit patterns");
      if List.exists (Ident.equal pattern.Item.id) ist.inherits then
        refuse (Pattern_violation "pattern already inherited");
      (* cycle through the inherits relation *)
      if Ident.equal pattern.Item.id inheritor.Item.id then
        refuse (Pattern_violation "an item cannot inherit itself");
      if
        List.exists
          (fun (p : Item.t) -> Ident.equal p.Item.id inheritor.Item.id)
          (View.transitive_patterns view pattern)
      then refuse (Pattern_violation "inheritance cycle");
      (* contexts are dynamic, so Database re-validates the inheritor
         after the (tentative) link; here the pattern's pieces must fit
         a normal inheritor's class *)
      if not ist.pattern then begin
        children_fit view pattern ~cls:ist.cls;
        List.iter
          (fun r ->
            Option.iter
              (fun (rs : Item.rel_state) ->
                bindings_fit view rs rs.endpoints ~id:pattern.Item.id ~cls:ist.cls)
              (View.rel_state view r))
          (View.rels view pattern.Item.id)
      end)

let check_delete view (item : Item.t) =
  run (fun () ->
      require_live view item;
      if independent item && View.live_pattern view item then
        match View.inheritors_of view item.Item.id with
        | inh :: _ ->
          refuse
            (Pattern_violation
               (Printf.sprintf "pattern is inherited by %s; remove inheritance first"
                  (item_name_for_msg view inh)))
        | [] -> ())

let check_inheritor_context view obj = run (fun () -> inheritor_context view obj)

let check_database view =
  let db = View.db view in
  let schema = View.schema view in
  let check_item (item : Item.t) =
    match View.fetched_state view item with
    | None -> ()
    | Some s when Item.state_deleted s -> ()
    | Some (Item.Obj o) ->
      value_fits_content (find_class schema o.cls) o.value;
      if independent item && not o.pattern then inheritor_context view item
    | Some (Item.Rel r) ->
      let def = find_assoc schema r.assoc in
      arity_fits def r.endpoints;
      List.iter (fun (n, v) -> attr_fits schema ~assoc:r.assoc n (Some v)) r.rel_attrs;
      if not r.rel_pattern then endpoints_fit view def r.endpoints
  in
  (* [check_item] skips non-live items, so the view's extents already
     enumerate everything that can fail a check; the first failure is
     the answer *)
  run (fun () ->
      Db_state.fold_live_ids (View.extents view)
        (fun id () -> Option.iter check_item (Db_state.find_item db id))
        ())
