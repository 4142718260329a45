open Seed_util
open Seed_schema

(* Predicates are reified so [select] can plan: the structured
   constructors below are recognised by [walk] and answered from
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
(* One walk over the predicate yields the plan: a superset — within the *)
(* live normal independent objects of the current state — of the items  *)
(* the predicate can match, or the reason the walk gave up (unbounded), *)
(* plus the extents, names and text lookups it consulted. {!select} and *)
(* {!count} execute the plan, re-testing the full predicate on every    *)
(* candidate, so a constructor only needs to be sound (never omit a     *)
(* match), not exact; {!explain} renders the same plan.                 *)
(*   - [In_class c] matches exactly the extent of [c];                  *)
(*   - [Is_a c] matches the union of the extents of [c] and its         *)
(*     descendants, because [class_is_a ~sub ~super:c] holds iff [sub]  *)
(*     is in [class_descendants_or_self c];                             *)
(*   - [Name_is n] can only match the object the name index binds to    *)
(*     [n] — every live named independent is indexed and names are      *)
(*     unique (the index may yield a pattern; the domain filter drops   *)
(*     it);                                                             *)
(*   - [Contains]/[Matches] make one trigram lookup over their needles  *)
(*     worth probing and verify the held text ({!Text_index}), then map *)
(*     each matching carrier to its root object — a superset because    *)
(*     pattern roots and inherited subtrees wash out in the re-test;    *)
(*     they are unbounded when no needle reaches trigram length, the    *)
(*     index is disabled, or every needle is too common;                *)
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

let long_enough n = String.length n >= Text_index.min_needle

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
    (fun n -> long_enough n && Text_index.estimate tx n <= cutoff)
    needles

type text_probe = {
  tp_path : string;  (* "" = any path *)
  tp_needles : string list;
  tp_trigrams : int;
  tp_postings : int;
  tp_candidates : int;
  tp_verified : int;
}

(* What one walk consulted, newest first. Every text node made one
   lookup (a [texts] entry) or fell back to the scan (counted in
   [fallbacks]). *)
type consulted = {
  mutable classes : string list;
  mutable names : string list;
  mutable texts : text_probe list;
  mutable fallbacks : int;
}

(* The plan: the candidate ids or why the walk gave up, and what it
   consulted. Extent sets are shared, not copied: [In_class] is the
   view's set itself, and [Is_a] of a leaf class is a union with the
   empty set. *)
let walk v p =
  let ext = View.extents v and schema = View.schema v and db = View.db v in
  let w = { classes = []; names = []; texts = []; fallbacks = 0 } in
  let fallback reason =
    w.fallbacks <- w.fallbacks + 1;
    Error reason
  in
  let text ~path needles =
    match View.text_index v with
    | None -> fallback "text index disabled — containment falls back to the scan"
    | Some tx -> (
      match probe_worthy tx needles with
      | [] ->
        fallback
          "every containment needle matches too many documents — the scan \
           is cheaper than walking their posting lists"
      | worthy ->
        let qpath = if String.equal path "" then None else Some path in
        let carriers, pr = Text_index.query_probe tx ?path:qpath worthy in
        w.texts <-
          {
            tp_path = path;
            tp_needles = worthy;
            tp_trigrams = pr.Text_index.pr_trigrams;
            tp_postings = pr.Text_index.pr_postings;
            tp_candidates = pr.Text_index.pr_candidates;
            tp_verified = pr.Text_index.pr_verified;
          }
          :: w.texts;
        let owner id acc =
          match root_owner db id with Some root -> root :: acc | None -> acc
        in
        Ok (Ident.Set.of_list (Ident.Set.fold owner carriers [])))
  in
  let rec go p =
    match p with
    | In_class cls ->
      w.classes <- cls :: w.classes;
      Ok (Db_state.obj_extent ext cls)
    | Is_a cls ->
      w.classes <- (cls ^ " (and descendants)") :: w.classes;
      Ok
        (List.fold_left
           (fun acc c -> Ident.Set.union acc (Db_state.obj_extent ext c))
           Ident.Set.empty
           (Schema.class_descendants_or_self schema cls))
    | Name_is n -> (
      w.names <- n :: w.names;
      match Db_state.find_id_by_name ext n with
      | Some id -> Ok (Ident.Set.singleton id)
      | None -> Ok Ident.Set.empty)
    | Contains { needle; _ } when not (long_enough needle) ->
      fallback
        (Printf.sprintf
           "needle %S is shorter than %d bytes (below trigram length)" needle
           Text_index.min_needle)
    | Contains { path; needle } -> text ~path [ needle ]
    | Matches { needles; _ } when not (List.exists long_enough needles) ->
      fallback "no needle reaches trigram length (3 bytes)"
    | Matches { path; needles } -> text ~path needles
    | And (p, q) -> (
      (* both sides are walked, in order, so every text node counts *)
      let a = go p in
      match (a, go q) with
      | Ok a, Ok b -> Ok (Ident.Set.inter a b)
      | (Ok _ as s), Error _ | Error _, (Ok _ as s) -> s
      | (Error _ as e), Error _ -> e)
    | Or (p, q) -> (
      let a = go p in
      match (a, go q) with
      | Ok a, Ok b -> Ok (Ident.Set.union a b)
      | Error r, _ | _, Error r ->
        Error ("disjunction with an unbounded arm: " ^ r))
    | Not _ -> Error "negation is unbounded"
    | Opaque _ -> Error "opaque predicate (no index structure)"
  in
  (go p, w)

type plan =
  | Indexed of {
      via : string;
      classes : string list;
      names : string list;
      texts : text_probe list;
      est_candidates : int;
    }
  | Scan of { reason : string }

let explain v p =
  match walk v p with
  | Error reason, _ -> Scan { reason }
  | Ok ids, w ->
    let via =
      match View.version v with
      | None -> "current-state extents"
      | Some vid ->
        Printf.sprintf "materialized view of version %s" (Version_id.to_string vid)
    in
    Indexed
      {
        via;
        classes = List.sort_uniq String.compare w.classes;
        names = List.sort_uniq String.compare w.names;
        texts = List.rev w.texts;
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
          "text index: %s contains %a (%d trigrams, %d postings, %d \
           candidates, %d verified)@,"
          (if tp.tp_path = "" then "any path" else tp.tp_path)
          Fmt.(list ~sep:(any " and ") (fmt "%S"))
          tp.tp_needles tp.tp_trigrams tp.tp_postings tp.tp_candidates
          tp.tp_verified)
      texts;
    Fmt.pf ppf
      "estimated candidates: %d (each re-tested against the full predicate)@]"
      est_candidates
  | Scan { reason } ->
    Fmt.pf ppf "@[<v>plan: full scan of the view@,reason: %s@]" reason

(* Fold [f] over the live normal independent objects satisfying [p]:
   the plan's candidates, re-checked and re-tested, or for an unbounded
   predicate the view's exact object extents, tested. Executing a plan,
   not explaining it, is what the text hit/fallback counters count. *)
let fold_hits v p f init =
  let db = View.db v in
  let bound, w = walk v p in
  Db_state.note_text_queries db ~hits:(List.length w.texts)
    ~fallbacks:w.fallbacks;
  let keep ~recheck id acc =
    match Db_state.find_item db id with
    | Some it when ((not recheck) || View.live_normal v it) && test p v it ->
      f it acc
    | Some _ | None -> acc
  in
  match bound with
  | Ok ids -> Ident.Set.fold (keep ~recheck:true) ids init
  | Error _ -> Db_state.fold_obj_extents (View.extents v) (keep ~recheck:false) init

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
