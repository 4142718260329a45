open Seed_util
open Seed_schema

(* Predicates are reified so [select] can plan: the structured
   constructors below are recognised by [candidates] and answered from
   the class extents and the name index; anything else is wrapped in
   [Opaque] and forces a scan of the view. *)
type pred =
  | In_class of string
  | Is_a of string
  | Name_is of string
  | Contains of { path : string; needle : string }
  | Matches of { path : string; needles : string list }
  | And of pred * pred
  | Or of pred * pred
  | Not of pred
  | Opaque of (View.t -> Item.t -> bool)

let in_class cls = In_class cls
let is_a cls = Is_a cls
let name_is n = Name_is n
let contains path needle = Contains { path; needle }
let matches path needles = Matches { path; needles }
let of_fun f = Opaque f

let name_matches f =
  Opaque
    (fun v it ->
      match View.full_name v it with Some m -> f m | None -> false)

let has_value f =
  Opaque
    (fun v it ->
      match View.obj_state v it with
      | Some { Item.value = Some value; _ } -> f value
      | Some { Item.value = None; _ } | None -> false)

let has_child ~role =
  Opaque (fun v it -> View.child_v v (View.vitem_real it) ~role () <> None)

let child_value ~role f =
  Opaque
    (fun v it ->
      View.children_v v (View.vitem_real it)
      |> List.exists (fun (vi : View.vitem) ->
             match vi.View.item.Item.body with
             | Item.Dependent d when String.equal d.role role -> (
               match View.obj_state v vi.View.item with
               | Some { Item.value = Some value; _ } -> f value
               | Some _ | None -> false)
             | Item.Dependent _ | Item.Independent | Item.Relationship ->
               false))

let rel_is_a v ~assoc (rel : Item.t) =
  match View.rel_state v rel with
  | Some rs -> Schema.assoc_is_a (View.schema v) ~sub:rs.Item.assoc ~super:assoc
  | None -> false

let related ~assoc =
  Opaque
    (fun v it ->
      View.rels_v v it
      |> List.exists (fun (vr : View.vrel) -> rel_is_a v ~assoc vr.View.rel))

let related_to ~assoc other =
  Opaque
    (fun v it ->
      View.rels_v v it
      |> List.exists (fun (vr : View.vrel) ->
             rel_is_a v ~assoc vr.View.rel
             &&
             let occurrences =
               List.length (List.filter (Ident.equal other) vr.View.endpoints)
             in
             (* the object's own binding does not make it "related to
                itself"; a genuine self-loop binds it twice *)
             if Ident.equal other it.Item.id then occurrences >= 2
             else occurrences >= 1))

let is_incomplete =
  Opaque (fun v it -> Completeness.check_object v it <> [])

(* Containment semantics: the object itself, or any of its live
   descendant sub-objects, carries a string value at the class path
   ([""] = any path) satisfying [f]. Only the object's {e own} subtree
   is walked — information viewed through pattern inheritance is not
   searched, matching what the trigram index covers. The walk reads
   the root's children sets, resolving each node's state once. *)
let carrier_matches v (it : Item.t) ~path f =
  let db = View.db v in
  let rec walk id (o : Item.obj_state) =
    (match o.Item.value with
    | Some (Value.String s) when String.equal path "" || String.equal path o.Item.cls ->
      f s
    | Some _ | None -> false)
    || Ident.Set.exists
         (fun c ->
           match View.state_of_id v c with
           | Some (Item.Obj o) when not o.Item.deleted -> walk c o
           | Some _ | None -> false)
         (Db_state.children_set db id)
  in
  match View.obj_state v it with Some o -> walk it.Item.id o | None -> false

let rec test p v it =
  match p with
  | In_class cls -> (
    match View.obj_state v it with
    | Some o -> String.equal o.Item.cls cls
    | None -> false)
  | Is_a cls -> (
    match View.obj_state v it with
    | Some o -> Schema.class_is_a (View.schema v) ~sub:o.Item.cls ~super:cls
    | None -> false)
  | Name_is n -> (
    match View.full_name v it with Some m -> String.equal m n | None -> false)
  | Contains { path; needle } ->
    carrier_matches v it ~path (fun s -> Text_index.string_contains s needle)
  | Matches { path; needles } ->
    carrier_matches v it ~path (fun s ->
        List.for_all (Text_index.string_contains s) needles)
  | And (p, q) -> test p v it && test q v it
  | Or (p, q) -> test p v it || test q v it
  | Not p -> not (test p v it)
  | Opaque f -> f v it

let ( &&& ) p q = And (p, q)
let ( ||| ) p q = Or (p, q)
let not_ p = Not p

(* ------------------------------------------------------------------ *)
(* Planner                                                              *)
(*                                                                      *)
(* [candidates] computes a superset — within the live normal            *)
(* independent objects of the current state — of the items a predicate  *)
(* can match; [None] means unbounded. The caller re-tests the full      *)
(* predicate on every candidate, so a constructor only needs to be      *)
(* sound (never omit a match), not exact:                               *)
(*   - [In_class c] matches exactly the extent of [c];                  *)
(*   - [Is_a c] matches the union of the extents of [c] and its         *)
(*     descendants, because [class_is_a ~sub ~super:c] holds iff [sub]  *)
(*     is in [class_descendants_or_self c];                             *)
(*   - [Name_is n] can only match the object the name index binds to    *)
(*     [n] — every live named independent is indexed and names are      *)
(*     unique (the index may yield a pattern; the domain filter drops   *)
(*     it);                                                             *)
(*   - [Contains]/[Matches] intersect trigram posting lists and verify  *)
(*     the held text ({!Text_index}), then map each matching carrier to *)
(*     its root object — a superset because pattern roots and inherited *)
(*     subtrees wash out in the re-test; they are unbounded when the    *)
(*     index is disabled or no needle reaches trigram length;           *)
(*   - [And] intersects (either side alone is already a superset),      *)
(*     [Or] unions (sound only when both sides are bounded);            *)
(*   - [Not] and [Opaque] are unbounded.                                *)
(* The planner is indifferent to where the id sets come from: it reads *)
(* the view's extents and text index ({!View.extents},                  *)
(* {!View.text_index}) — the current root's on the current view, the    *)
(* materialized version's on a version view.                            *)
(* ------------------------------------------------------------------ *)

(* The independent object owning a carrier: the carrier itself, or the
   top of its parent chain when the match is inside a sub-object. *)
let rec root_owner db id =
  match Db_state.find_item db id with
  | Some { Item.body = Item.Dependent { parent; _ }; _ } -> root_owner db parent
  | Some { Item.body = Item.Independent; _ } -> Some id
  | Some { Item.body = Item.Relationship; _ } | None -> None

(* Needles worth probing: long enough for a trigram and rare enough to
   beat the scan. Dropping a needle is always sound — the remaining
   ones still bound a superset and the re-test applies the full
   conjunction — so a needle whose rarest posting list covers over a
   tenth of the documents is answered by the scan instead of by walking
   a posting list of comparable size (tiny lists always pass: below 64
   candidates the walk is cheap at any ratio). *)
let probe_worthy tx needles =
  let cutoff = max 64 (Text_index.doc_count tx / 10) in
  List.filter
    (fun n ->
      String.length n >= Text_index.min_needle
      && Text_index.estimate tx n <= cutoff)
    needles

(* Verified root-object candidates for conjunctive containment. [None]
   (scan fallback) when the index is disabled or no needle is worth
   probing. *)
let text_candidates v ~path needles =
  let db = View.db v in
  match View.text_index v with
  | None ->
    Db_state.note_text_fallback db;
    None
  | Some tx -> (
    let qpath = if String.equal path "" then None else Some path in
    match probe_worthy tx needles with
    | [] ->
      Db_state.note_text_fallback db;
      None
    | worthy ->
      Db_state.note_text_hit db;
      let owner id acc =
        match root_owner db id with Some root -> root :: acc | None -> acc
      in
      let carriers = Text_index.query tx ?path:qpath worthy in
      Some (Ident.Set.of_list (Ident.Set.fold owner carriers [])))

(* Extent sets are shared, not copied: [In_class] is the view's set
   itself, and [Is_a] of a leaf class is a union with the empty set. *)
let candidates v p =
  let ext = View.extents v and schema = View.schema v in
  let rec go p =
    match p with
    | In_class cls -> Some (Db_state.obj_extent ext cls)
    | Is_a cls ->
      Some
        (List.fold_left
           (fun acc c -> Ident.Set.union acc (Db_state.obj_extent ext c))
           Ident.Set.empty
           (Schema.class_descendants_or_self schema cls))
    | Name_is n -> (
      match Db_state.find_id_by_name ext n with
      | Some id -> Some (Ident.Set.singleton id)
      | None -> Some Ident.Set.empty)
    | Contains { path; needle } -> text_candidates v ~path [ needle ]
    | Matches { path; needles } -> text_candidates v ~path needles
    | And (p, q) -> (
      match (go p, go q) with
      | Some a, Some b -> Some (Ident.Set.inter a b)
      | (Some _ as s), None | None, (Some _ as s) -> s
      | None, None -> None)
    | Or (p, q) -> (
      match (go p, go q) with
      | Some a, Some b -> Some (Ident.Set.union a b)
      | Some _, None | None, Some _ | None, None -> None)
    | Not _ | Opaque _ -> None
  in
  go p

(* ------------------------------------------------------------------ *)
(* Plan explanation                                                     *)
(* ------------------------------------------------------------------ *)

type text_probe = {
  tp_path : string;  (* "" = any path *)
  tp_needle : string;
  tp_trigrams : int;
  tp_postings : int;
  tp_candidates : int;
  tp_verified : int;
}

type plan =
  | Indexed of {
      via : string;
      classes : string list;
      names : string list;
      texts : text_probe list;
      est_candidates : int;
    }
  | Scan of { reason : string }

(* The first structural reason the candidate computation gives up — for
   the [Scan] diagnosis. Mirrors [candidates]'s bounding rules. *)
let rec unbounded_reason p =
  match p with
  | In_class _ | Is_a _ | Name_is _ -> None
  | Contains { needle; _ } ->
    if String.length needle >= Text_index.min_needle then None
    else
      Some
        (Printf.sprintf
           "needle %S is shorter than %d bytes (below trigram length)" needle
           Text_index.min_needle)
  | Matches { needles; _ } ->
    if
      List.exists
        (fun n -> String.length n >= Text_index.min_needle)
        needles
    then None
    else Some "no needle reaches trigram length (3 bytes)"
  | And (p, q) -> (
    (* bounded as soon as either side is *)
    match (unbounded_reason p, unbounded_reason q) with
    | Some a, Some _ -> Some a
    | _ -> None)
  | Or (p, q) -> (
    match unbounded_reason p with
    | Some r -> Some ("disjunction with an unbounded arm: " ^ r)
    | None -> (
      match unbounded_reason q with
      | Some r -> Some ("disjunction with an unbounded arm: " ^ r)
      | None -> None))
  | Not _ -> Some "negation is unbounded"
  | Opaque _ -> Some "opaque predicate (no index structure)"

(* Index terms the planner would consult, in appearance order. *)
let rec index_terms p =
  match p with
  | In_class c -> ([ c ], [])
  | Is_a c -> ([ c ^ " (and descendants)" ], [])
  | Name_is n -> ([], [ n ])
  | Contains _ | Matches _ -> ([], [])
  | And (p, q) | Or (p, q) ->
    let pc, pn = index_terms p and qc, qn = index_terms q in
    (pc @ qc, pn @ qn)
  | Not _ | Opaque _ -> ([], [])

(* Text-index lookups the planner would make: (path, needles) per node. *)
let rec text_terms p =
  match p with
  | Contains { path; needle } -> [ (path, [ needle ]) ]
  | Matches { path; needles } -> [ (path, needles) ]
  | And (p, q) | Or (p, q) -> text_terms p @ text_terms q
  | In_class _ | Is_a _ | Name_is _ | Not _ | Opaque _ -> []

let probe_texts v p =
  match View.text_index v with
  | None -> []
  | Some tx ->
    text_terms p
    |> List.concat_map (fun (path, needles) ->
           let qpath = if String.equal path "" then None else Some path in
           List.map
             (fun n ->
               let _, pr = Text_index.query_probe tx ?path:qpath [ n ] in
               {
                     tp_path = path;
                     tp_needle = n;
                     tp_trigrams = pr.Text_index.pr_trigrams;
                     tp_postings = pr.Text_index.pr_postings;
                     tp_candidates = pr.Text_index.pr_candidates;
                     tp_verified = pr.Text_index.pr_verified;
                   })
             needles)

let explain v p =
  match candidates v p with
  | None ->
    Scan
      {
        reason =
          (match unbounded_reason p with
          | Some r -> r
          | None ->
            if text_terms p = [] then "predicate is unbounded"
            else if View.text_index v = None then
              "text index disabled — containment falls back to the scan"
            else
              "every containment needle matches too many documents — \
               the scan is cheaper than walking their posting lists");
      }
  | Some ids ->
    let classes, names = index_terms p in
    let via =
      match View.version v with
      | None -> "current-state extents"
      | Some vid ->
        Printf.sprintf "materialized view of version %s" (Version_id.to_string vid)
    in
    Indexed
      {
        via;
        classes = List.sort_uniq String.compare classes;
        names = List.sort_uniq String.compare names;
        texts = probe_texts v p;
        est_candidates = Ident.Set.cardinal ids;
      }

let pp_plan ppf = function
  | Indexed { via; classes; names; texts; est_candidates } ->
    Fmt.pf ppf "@[<v>plan: indexed candidate set@,source: %s@," via;
    if classes <> [] then
      Fmt.pf ppf "class extents: %s@," (String.concat ", " classes);
    if names <> [] then
      Fmt.pf ppf "name index: %s@," (String.concat ", " names);
    List.iter
      (fun tp ->
        Fmt.pf ppf
          "text index: %s contains %S (%d trigrams, %d postings, %d \
           candidates, %d verified)@,"
          (if tp.tp_path = "" then "any path" else tp.tp_path)
          tp.tp_needle tp.tp_trigrams tp.tp_postings tp.tp_candidates
          tp.tp_verified)
      texts;
    Fmt.pf ppf
      "estimated candidates: %d (each re-tested against the full predicate)@]"
      est_candidates
  | Scan { reason } ->
    Fmt.pf ppf "@[<v>plan: full scan of the view@,reason: %s@]" reason

(* Fold [f] over the live normal independent objects satisfying [p]:
   the planner's candidates, re-checked and re-tested, or for an
   unbounded predicate the view's exact object extents, tested. *)
let fold_hits v p f init =
  let db = View.db v in
  let keep ~recheck id acc =
    match Db_state.find_item db id with
    | Some it when ((not recheck) || View.live_normal v it) && test p v it ->
      f it acc
    | Some _ | None -> acc
  in
  match candidates v p with
  | Some ids -> Ident.Set.fold (keep ~recheck:true) ids init
  | None -> Db_state.fold_obj_extents (View.extents v) (keep ~recheck:false) init

(* Hits decorated with their full names, sorted once: by name (unique
   among live objects; unnamed ones first), ties by id. *)
let named_hits v p =
  let named it acc = (View.full_name v it, it) :: acc in
  let hits = Array.of_list (fold_hits v p named []) in
  Array.sort
    (fun (m, (a : Item.t)) (n, (b : Item.t)) ->
      match Option.compare String.compare m n with
      | 0 -> Ident.compare a.Item.id b.Item.id
      | c -> c)
    hits;
  hits

let select v p = Array.fold_right (fun (_, it) acc -> it :: acc) (named_hits v p) []

let select_names v p =
  Array.fold_right
    (fun (n, _) acc -> match n with Some n -> n :: acc | None -> acc)
    (named_hits v p) []

let count v p = fold_hits v p (fun _ n -> n + 1) 0

let select_rels v ~assoc =
  let ext = View.extents v in
  Schema.assoc_descendants_or_self (View.schema v) assoc
  |> List.fold_left
       (fun acc a -> Ident.Set.union acc (Db_state.rel_extent ext a))
       Ident.Set.empty
  |> Ident.Set.elements
  |> List.filter_map (Db_state.find_item (View.db v))

let neighbors v (it : Item.t) ~assoc ~from_pos ~to_pos =
  let db = View.db v in
  View.rels_v v it
  |> List.filter_map (fun (vr : View.vrel) ->
         if not (rel_is_a v ~assoc vr.View.rel) then None
         else
           match
             (List.nth_opt vr.View.endpoints from_pos,
              List.nth_opt vr.View.endpoints to_pos)
           with
           | Some f, Some t when Ident.equal f it.Item.id -> (
             match Db_state.find_item db t with
             | Some other when View.live_normal v other -> Some other
             | Some _ | None -> None)
           | _ -> None)
  |> List.sort_uniq (fun (a : Item.t) b -> Ident.compare a.Item.id b.Item.id)

let reachable v it ~assoc ~from_pos ~to_pos =
  let seen = ref Ident.Set.empty in
  let order = ref [] in
  let rec go (node : Item.t) =
    List.iter
      (fun (next : Item.t) ->
        if not (Ident.Set.mem next.Item.id !seen) then begin
          seen := Ident.Set.add next.Item.id !seen;
          order := next :: !order;
          go next
        end)
      (neighbors v node ~assoc ~from_pos ~to_pos)
  in
  go it;
  List.rev !order
