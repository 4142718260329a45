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
  | Matches of { path : string; needles : string list }
  | And of pred * pred
  | Or of pred * pred
  | Not of pred
  | Opaque of (View.t -> Item.t -> bool)

let in_class cls = In_class cls
let is_a cls = Is_a cls
let name_is n = Name_is n
let contains path needle = Matches { path; needles = [ needle ] }
let matches path needles = Matches { path; needles }
let of_fun f = Opaque f

let is_incomplete =
  Opaque (fun v it -> Completeness.check_object v it <> [])

(* Containment semantics: the object itself, or any of its live
   descendant sub-objects, carries a string value at the class path
   ([""] = any path) containing every needle. Only the object's {e own}
   subtree is walked — information viewed through pattern inheritance
   is not searched, matching what the trigram index covers. The walk
   reads the root's children sets, resolving each node's state once. *)
let carrier_matches v (it : Item.t) ~path needles =
  let db = View.db v in
  let rec walk id (o : Item.obj_state) =
    (match o.Item.value with
    | Some (Value.String s) when String.equal path "" || String.equal path o.Item.cls ->
      Text_index.contains_all s needles
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
  | Matches { path; needles } -> carrier_matches v it ~path needles
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
(* the predicate can match and whether it is exact (every live normal   *)
(* candidate matches), or the reason the walk gave up (unbounded), plus *)
(* what it consulted. {!select} and {!count} check each candidate live  *)
(* and normal, and re-test the predicate only on an inexact plan; so a  *)
(* node must be sound (never omit a match) and is exact only as marked: *)
(*   - [In_class c] is exactly the extent of [c];                       *)
(*   - [Is_a c] is exactly the union of the extents of                 *)
(*     [class_descendants_or_self c];                                   *)
(*   - [Name_is n] is the object the name index binds to [n] (exact:    *)
(*     names are unique, and a pattern binding fails the live check);   *)
(*   - [Matches] ([contains] is its one-needle form) makes one trigram *)
(*     lookup over its needles worth probing and maps the verified      *)
(*     carriers ({!Text_index}) to their roots — exact when every       *)
(*     needle was probed; unbounded when no needle reaches trigram      *)
(*     length, the index is disabled, or every needle is too common;    *)
(*   - [And] intersects (one bounded side suffices), [Or] unions (both  *)
(*     sides bounded); either is exact when both sides are bounded and  *)
(*     exact;                                                           *)
(*   - [Not] and [Opaque] are unbounded.                                *)
(* The planner reads the view's extents and text index ({!View.extents},*)
(* {!View.text_index}): the current root's or the version's.            *)
(* ------------------------------------------------------------------ *)

(* The independent object owning a carrier: the carrier itself, or the
   top of its parent chain when the match is inside a sub-object. *)
let rec root_owner db id =
  match Db_state.find_item db id with
  | Some { Item.body = Item.Dependent { parent; _ }; _ } -> root_owner db parent
  | Some { Item.body = Item.Independent; _ } -> Some id
  | Some { Item.body = Item.Relationship; _ } | None -> None

let long_enough n = String.length n >= Text_index.min_needle

(* The lookups of the needles worth probing: long enough for a trigram
   and rare enough to beat the scan. Dropping a needle is always sound —
   the rest bound an inexact superset, which the re-test narrows — so a
   needle whose rarest posting list covers over a tenth of the documents
   is answered by the scan instead of by walking a posting list of
   comparable size (tiny lists always pass: below 64 candidates the walk
   is cheap at any ratio). Each needle is looked up once; the probe
   intersects the same lookups. *)
let probe_worthy tx needles =
  let cutoff = max 64 (Text_index.doc_count tx / 10) in
  List.filter_map
    (fun n ->
      if not (long_enough n) then None
      else
        let l = Text_index.lookup tx n in
        if Text_index.estimate tx l <= cutoff then Some l else None)
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

(* The plan: the candidate ids and their exactness, or why the walk
   gave up, and what it consulted. Extent sets are shared, not copied:
   [In_class] is the view's set itself, and [Is_a] of a leaf class is a
   union with the empty set. *)
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
            tp_needles = List.map Text_index.needle worthy;
            tp_trigrams = pr.Text_index.pr_trigrams;
            tp_postings = pr.Text_index.pr_postings;
            tp_candidates = pr.Text_index.pr_candidates;
            tp_verified = pr.Text_index.pr_verified;
          }
          :: w.texts;
        let exact = List.compare_lengths worthy needles = 0 in
        Ok (Ident.Set.of_list (List.filter_map (root_owner db) carriers), exact))
  in
  let rec go p =
    match p with
    | In_class cls ->
      w.classes <- cls :: w.classes;
      Ok (Db_state.obj_extent ext cls, true)
    | Is_a cls ->
      w.classes <- (cls ^ " (and descendants)") :: w.classes;
      Ok
        ( List.fold_left
            (fun acc c -> Ident.Set.union acc (Db_state.obj_extent ext c))
            Ident.Set.empty
            (Schema.class_descendants_or_self schema cls),
          true )
    | Name_is n ->
      w.names <- n :: w.names;
      let id = Db_state.find_id_by_name ext n in
      Ok (Option.fold ~none:Ident.Set.empty ~some:Ident.Set.singleton id, true)
    | Matches { needles; _ } when not (List.exists long_enough needles) ->
      fallback "no needle reaches trigram length (3 bytes)"
    | Matches { path; needles } -> text ~path needles
    | And (p, q) -> (
      (* both sides are walked, in order, so every text node counts *)
      let a = go p in
      match (a, go q) with
      | Ok (a, x), Ok (b, y) -> Ok (Ident.Set.inter a b, x && y)
      | Ok (s, _), Error _ | Error _, Ok (s, _) -> Ok (s, false)
      | (Error _ as e), Error _ -> e)
    | Or (p, q) -> (
      let a = go p in
      match (a, go q) with
      | Ok (a, x), Ok (b, y) -> Ok (Ident.Set.union a b, x && y)
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
      candidates : Ident.Set.t;
      est_candidates : int;
      exact : bool;
    }
  | Scan of { reason : string }

let explain v p =
  match walk v p with
  | Error reason, _ -> Scan { reason }
  | Ok (ids, exact), w ->
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
        candidates = ids;
        est_candidates = Ident.Set.cardinal ids;
        exact;
      }

let pp_plan ppf = function
  | Indexed { via; classes; names; texts; est_candidates; exact; _ } ->
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
    Fmt.pf ppf "estimated candidates: %d (%s)@]" est_candidates
      (if exact then "exact: each only checked live and normal"
       else "each re-tested against the full predicate")
  | Scan { reason } ->
    Fmt.pf ppf "@[<v>plan: full scan of the view@,reason: %s@]" reason

(* Fold [f] over the live normal independent objects satisfying [p]:
   the plan's candidates, re-checked on the state fetched with them and
   re-tested unless the plan is exact, or for an unbounded predicate the
   view's exact object extents, tested. Executing a plan, not explaining
   it, is what the text hit/fallback counters count. *)
let fold_hits v p f init =
  let db = View.db v in
  let bound, w = walk v p in
  Db_state.note_text_queries db ~hits:(List.length w.texts)
    ~fallbacks:w.fallbacks;
  let keep ~recheck ~exact id acc =
    match Db_state.find_item db id with
    | Some it
      when ((not recheck) || View.live_normal v it)
           && (exact || test p v it) ->
      f it acc
    | Some _ | None -> acc
  in
  match bound with
  | Ok (ids, exact) -> Ident.Set.fold (keep ~recheck:true ~exact) ids init
  | Error _ ->
    Db_state.fold_obj_extents (View.extents v) (keep ~recheck:false ~exact:false) init

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
