open Seed_util
open Seed_error

module SMap = Map.Make (String)
module SSet = Set.Make (String)

(* Memoized transitive closure of one generalization hierarchy: every
   [is_a] and descendant-extent query is a map lookup instead of a walk.
   Closures live behind a [Lazy.t] rebuilt by every function that
   changes the class or association maps, so a schema whose hierarchies
   changed always starts from a fresh cache; [with_revision] only
   restamps and keeps the cell. *)
type gen_closure = {
  up_list : string list;  (** proper ancestors, nearest first *)
  up_set : SSet.t;  (** ancestors including self *)
  down_list : string list;  (** proper descendants (transitive) *)
}

(* Per-class answers the consistency checks ask for every object, built
   in the same cell as the closures: computed once per schema, shared by
   the per-update checks and the whole-database sweep. *)
type class_memo = {
  participation : (Assoc_def.t * int * Assoc_def.role) list;
  child_defs : Class_def.t SMap.t;  (** by role, nearest definition *)
}

type closures = {
  class_closures : gen_closure SMap.t;
  assoc_closures : gen_closure SMap.t;
  class_memos : class_memo SMap.t;
}

type t = {
  class_map : Class_def.t SMap.t;
  assoc_map : Assoc_def.t SMap.t;
  rev : int;
  closures : closures Lazy.t;
}

(* Generic generalization walks, shared between classes and associations.
   These are the uncached reference walks; the closure cache is computed
   with them and callers go through the cache. *)

let rec supers_of find super_of n acc =
  match find n with
  | None -> List.rev acc
  | Some def -> (
    match super_of def with
    | None -> List.rev acc
    | Some sup ->
      if List.exists (String.equal sup) acc || String.equal sup n then
        List.rev acc (* cycle: validation reports it; avoid looping *)
      else supers_of find super_of sup (sup :: acc))

let compute_closures_of map super_of =
  let find n = SMap.find_opt n map in
  (* direct-specialization adjacency, one pass over the map *)
  let children =
    SMap.fold
      (fun name def acc ->
        match super_of def with
        | Some sup ->
          SMap.update sup
            (function None -> Some [ name ] | Some l -> Some (name :: l))
            acc
        | None -> acc)
      map SMap.empty
  in
  let down_memo = Hashtbl.create 64 in
  let rec down visiting name =
    match Hashtbl.find_opt down_memo name with
    | Some d -> d
    | None ->
      if SSet.mem name visiting then [] (* cycle guard, as in supers_of *)
      else
        let visiting = SSet.add name visiting in
        let kids =
          match SMap.find_opt name children with
          | Some l -> List.rev l
          | None -> []
        in
        let d = List.concat_map (fun k -> k :: down visiting k) kids in
        Hashtbl.add down_memo name d;
        d
  in
  SMap.mapi
    (fun name _def ->
      let up_list = supers_of find super_of name [] in
      let up_set =
        List.fold_left (fun s x -> SSet.add x s) (SSet.singleton name) up_list
      in
      { up_list; up_set; down_list = down SSet.empty name })
    map

(* Direct sub-classes of [n] in [class_map], by dotted-name prefix. *)
let own_children_of class_map n =
  let prefix = n ^ "." in
  let plen = String.length prefix in
  SMap.fold
    (fun name c acc ->
      if
        String.length name > plen
        && String.sub name 0 plen = prefix
        && not (String.contains_from name plen '.')
      then c :: acc
      else acc)
    class_map []
  |> List.rev

let compute_memos class_map assoc_map class_closures =
  SMap.mapi
    (fun cls _ ->
      (* [class_closures] has an entry for every class of the map *)
      let closure = SMap.find cls class_closures in
      let participation =
        SMap.fold
          (fun _ (a : Assoc_def.t) acc ->
            acc
            @ List.concat
                (List.mapi
                   (fun i (r : Assoc_def.role) ->
                     if SSet.mem r.target closure.up_set then [ (a, i, r) ] else [])
                   a.roles))
          assoc_map []
      in
      (* nearest first: a farther definition never shadows *)
      let add_own m c =
        List.fold_left
          (fun m d ->
            let role = Class_def.simple_name d in
            if SMap.mem role m then m else SMap.add role d m)
          m (own_children_of class_map c)
      in
      { participation; child_defs = List.fold_left add_own SMap.empty (cls :: closure.up_list) })
    class_map

let compute_closures class_map assoc_map =
  let class_closures =
    compute_closures_of class_map (fun (c : Class_def.t) -> c.super)
  in
  {
    class_closures;
    assoc_closures = compute_closures_of assoc_map (fun (a : Assoc_def.t) -> a.super);
    class_memos = compute_memos class_map assoc_map class_closures;
  }

let make ~class_map ~assoc_map ~rev =
  { class_map; assoc_map; rev; closures = lazy (compute_closures class_map assoc_map) }

(* Forcing on the writer before a schema escapes to reader domains makes
   the subsequent cross-domain [Lazy.force] calls plain reads. *)
let prepare s = ignore (Lazy.force s.closures)

let class_closure s n = SMap.find_opt n (Lazy.force s.closures).class_closures
let assoc_closure s n = SMap.find_opt n (Lazy.force s.closures).assoc_closures
let class_memo s n = SMap.find_opt n (Lazy.force s.closures).class_memos

let revision s = s.rev
let empty = make ~class_map:SMap.empty ~assoc_map:SMap.empty ~rev:0
(* Restamping shares the (possibly already forced) closure cell: the
   hierarchies are untouched, so the closures are byte-identical. *)
let with_revision s rev = { s with rev }

let valid_component c =
  (not (String.equal c ""))
  && not (String.exists (fun ch -> ch = '.' || ch = '[' || ch = ']') c)

let add_class s (c : Class_def.t) =
  let name = Class_def.name c in
  if not (List.for_all valid_component c.path) then
    fail (Schema_violation ("bad class path: " ^ name))
  else if SMap.mem name s.class_map then fail (Duplicate_class name)
  else
    match Class_def.parent_name c with
    | Some p when not (SMap.mem p s.class_map) -> fail (Unknown_class p)
    | Some _ | None ->
      Ok
        (make
           ~class_map:(SMap.add name c s.class_map)
           ~assoc_map:s.assoc_map ~rev:s.rev)

let add_assoc s (a : Assoc_def.t) =
  if not (valid_component a.name) then
    fail (Schema_violation ("bad association name: " ^ a.name))
  else if SMap.mem a.name s.assoc_map then fail (Duplicate_association a.name)
  else
    Ok
      (make ~class_map:s.class_map
         ~assoc_map:(SMap.add a.name a s.assoc_map)
         ~rev:s.rev)

let find_class s n = SMap.find_opt n s.class_map

let find_class_res s n =
  match find_class s n with Some c -> Ok c | None -> fail (Unknown_class n)

let find_assoc s n = SMap.find_opt n s.assoc_map

let find_assoc_res s n =
  match find_assoc s n with
  | Some a -> Ok a
  | None -> fail (Unknown_association n)

let classes s = List.map snd (SMap.bindings s.class_map)
let assocs s = List.map snd (SMap.bindings s.assoc_map)

let top_level_classes s =
  List.filter Class_def.is_top_level (classes s)

let own_children s n = own_children_of s.class_map n

let class_supers s n =
  match class_closure s n with Some c -> c.up_list | None -> []

let assoc_supers s n =
  match assoc_closure s n with Some c -> c.up_list | None -> []

(* A name outside the schema (possible on instances surviving a schema
   evolution) generalizes nothing but itself, as with the plain walk. *)
let class_is_a s ~sub ~super =
  match class_closure s sub with
  | Some c -> SSet.mem super c.up_set
  | None -> String.equal sub super

let assoc_is_a s ~sub ~super =
  match assoc_closure s sub with
  | Some c -> SSet.mem super c.up_set
  | None -> String.equal sub super

let class_specializations s n =
  SMap.fold
    (fun name (c : Class_def.t) acc ->
      match c.super with
      | Some sup when String.equal sup n -> name :: acc
      | Some _ | None -> acc)
    s.class_map []
  |> List.rev

let assoc_specializations s n =
  SMap.fold
    (fun name (a : Assoc_def.t) acc ->
      match a.super with
      | Some sup when String.equal sup n -> name :: acc
      | Some _ | None -> acc)
    s.assoc_map []
  |> List.rev

let descendants direct n =
  let rec go acc frontier =
    match frontier with
    | [] -> List.rev acc
    | x :: rest ->
      let kids = direct x in
      go (List.rev_append kids acc) (kids @ rest)
  in
  go [] [ n ]

(* Unknown names fall back to the scan: a class outside the schema can
   still be named as [super] by definitions added out of order. *)
let class_descendants s n =
  match class_closure s n with
  | Some c -> c.down_list
  | None -> descendants (class_specializations s) n

let assoc_descendants s n =
  match assoc_closure s n with
  | Some c -> c.down_list
  | None -> descendants (assoc_specializations s) n

let class_descendants_or_self s n = n :: class_descendants s n
let assoc_descendants_or_self s n = n :: assoc_descendants s n

let class_hierarchy_root s n =
  match List.rev (class_supers s n) with [] -> n | root :: _ -> root

let assoc_hierarchy_root s n =
  match List.rev (assoc_supers s n) with [] -> n | root :: _ -> root

let same_class_hierarchy s a b =
  String.equal (class_hierarchy_root s a) (class_hierarchy_root s b)

let same_assoc_hierarchy s a b =
  String.equal (assoc_hierarchy_root s a) (assoc_hierarchy_root s b)

let resolve_child s ~cls ~role =
  match Option.bind (class_memo s cls) (fun m -> SMap.find_opt role m.child_defs) with
  | Some def -> Ok def
  | None -> fail (Unknown_class (cls ^ "." ^ role))

let effective_children s cls =
  let chain = cls :: class_supers s cls in
  List.concat_map
    (fun c ->
      List.map (fun d -> (Class_def.simple_name d, d)) (own_children s c))
    chain

let effective_attrs s assoc =
  let chain = assoc :: assoc_supers s assoc in
  List.concat_map
    (fun a ->
      match find_assoc s a with
      | Some def -> def.Assoc_def.attrs
      | None -> [])
    chain

let resolve_attr s ~assoc ~attr =
  match
    List.find_opt
      (fun (a : Assoc_def.attr) -> String.equal a.Assoc_def.attr_name attr)
      (effective_attrs s assoc)
  with
  | Some a -> Ok a
  | None ->
    fail
      (Schema_violation
         (Printf.sprintf "association %s has no attribute %s" assoc attr))

let participation_constraints s ~cls =
  match class_memo s cls with Some m -> m.participation | None -> []

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let check_super_chain kind find super_of name =
  (* Detect cycles and dangling supers in a generalization hierarchy. *)
  let rec go seen n =
    match find n with
    | None -> fail (Schema_violation (kind ^ " generalizes unknown " ^ n))
    | Some def -> (
      match super_of def with
      | None -> Ok ()
      | Some sup ->
        if List.exists (String.equal sup) seen then
          fail
            (Schema_violation
               (Printf.sprintf "generalization cycle through %s at %s" name sup))
        else go (sup :: seen) sup)
  in
  go [ name ] name

let validate_class s (c : Class_def.t) =
  let name = Class_def.name c in
  let* () =
    match c.super with
    | None -> Ok ()
    | Some sup ->
      if not (Class_def.is_top_level c) then
        fail
          (Schema_violation
             (name ^ ": only top-level classes may be generalized"))
      else
        let* sup_def = find_class_res s sup in
        if not (Class_def.is_top_level sup_def) then
          fail (Schema_violation (name ^ ": super " ^ sup ^ " is not top-level"))
        else check_super_chain ("class " ^ name) (find_class s)
               (fun (d : Class_def.t) -> d.super)
               name
  in
  let* () =
    if c.covering && class_specializations s name = [] then
      fail
        (Schema_violation
           (name ^ ": covering generalization without specializations"))
    else Ok ()
  in
  (* No name clash among own + inherited sub-classes. *)
  if Class_def.is_top_level c then
    let kids = effective_children s name in
    let names = List.map fst kids in
    let dups =
      List.filter
        (fun n -> List.length (List.filter (String.equal n) names) > 1)
        (List.sort_uniq String.compare names)
    in
    match dups with
    | [] -> Ok ()
    | d :: _ ->
      fail
        (Schema_violation
           (Printf.sprintf "class %s: sub-class %s clashes with inherited one"
              name d))
  else Ok ()

let validate_assoc s (a : Assoc_def.t) =
  let* () =
    iter_result
      (fun (r : Assoc_def.role) ->
        let* def = find_class_res s r.target in
        if Class_def.is_top_level def then Ok ()
        else
          fail
            (Schema_violation
               (Printf.sprintf "assoc %s: role %s targets sub-class %s" a.name
                  r.role_name r.target)))
      a.roles
  in
  let* () =
    match a.super with
    | None -> Ok ()
    | Some sup ->
      let* sup_def = find_assoc_res s sup in
      let* () =
        check_super_chain ("assoc " ^ a.name) (find_assoc s)
          (fun (d : Assoc_def.t) -> d.super)
          a.name
      in
      if Assoc_def.arity sup_def <> Assoc_def.arity a then
        fail
          (Schema_violation
             (Printf.sprintf "assoc %s: arity differs from super %s" a.name sup))
      else
        iter_result
          (fun (i, (r : Assoc_def.role)) ->
            let sr = Assoc_def.nth_role sup_def i in
            if class_is_a s ~sub:r.target ~super:sr.target then Ok ()
            else
              fail
                (Schema_violation
                   (Printf.sprintf
                      "assoc %s: role %s target %s does not specialize %s of %s"
                      a.name r.role_name r.target sr.target sup)))
          (List.mapi (fun i r -> (i, r)) a.roles)
  in
  let* () =
    if a.acyclic then
      if Assoc_def.arity a <> 2 then
        fail
          (Schema_violation
             (Printf.sprintf "assoc %s: ACYCLIC requires a binary association"
                a.name))
      else
        match a.roles with
        | [ r1; r2 ] ->
          if same_class_hierarchy s r1.target r2.target then Ok ()
          else
            fail
              (Schema_violation
                 (Printf.sprintf
                    "assoc %s: ACYCLIC roles must range over one hierarchy"
                    a.name))
        | _ -> assert false
    else Ok ()
  in
  let* () =
    if a.covering && assoc_specializations s a.name = [] then
      fail
        (Schema_violation
           (a.name ^ ": covering generalization without specializations"))
    else Ok ()
  in
  (* no clash among own + inherited attribute names *)
  let anames =
    List.map (fun (x : Assoc_def.attr) -> x.Assoc_def.attr_name)
      (effective_attrs s a.name)
  in
  if List.length (List.sort_uniq String.compare anames) <> List.length anames
  then
    fail
      (Schema_violation
         (a.name ^ ": attribute clashes with an inherited one"))
  else Ok ()

let validate s =
  let* () = iter_result (validate_class s) (classes s) in
  iter_result (validate_assoc s) (assocs s)

let of_defs class_defs assoc_defs =
  let* s =
    List.fold_left
      (fun acc c ->
        let* s = acc in
        add_class s c)
      (Ok empty) class_defs
  in
  let* s =
    List.fold_left
      (fun acc a ->
        let* s = acc in
        add_assoc s a)
      (Ok s) assoc_defs
  in
  let* () = validate s in
  Ok (with_revision s 1)

let of_defs_exn class_defs assoc_defs = ok_exn (of_defs class_defs assoc_defs)
