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
   reads the view's children sets, resolving each node's state once by
   a fetch that boxes nothing for an item of the table's base; its
   closures are made once per predicate, not per object tested. *)
let carrier_matches v ~path needles =
  let x = View.extents v in
  let rec walk id (state : Item.state) =
    match state with
    | Item.Obj o ->
      (match o.value with
      | Some (Value.String s) when String.equal path "" || String.equal path o.cls ->
        Text_index.contains_all s needles
      | Some _ | None -> false)
      || Ident.Set.exists child (Db_state.children_of x id)
    | Item.Rel _ | Item.Absent -> false
  and child c = walk c (View.state_of_id v c) in
  fun (it : Item.t) -> walk it.Item.id (View.state v it)

let rec test p v it =
  match p with
  | In_class cls -> (
    match View.state v it with
    | Item.Obj o -> String.equal o.cls cls
    | Item.Rel _ | Item.Absent -> false)
  | Is_a cls -> (
    match View.state v it with
    | Item.Obj o -> Schema.class_is_a (View.schema v) ~sub:o.cls ~super:cls
    | Item.Rel _ | Item.Absent -> false)
  | Name_is n -> (
    match View.full_name v it with Some m -> String.equal m n | None -> false)
  | Matches { path; needles } -> carrier_matches v ~path needles it
  | And (p, q) -> test p v it && test q v it
  | Or (p, q) -> test p v it || test q v it
  | Not p -> not (test p v it)
  | Opaque f -> f v it

(* [test p v] with the closures of its containment walks made once, for
   a fold that tests many items: a scan then allocates nothing per
   item. *)
let rec tester p v : Item.t -> bool =
  match p with
  | Matches { path; needles } -> carrier_matches v ~path needles
  | And (p, q) ->
    let p = tester p v and q = tester q v in
    fun it -> p it && q it
  | Or (p, q) ->
    let p = tester p v and q = tester q v in
    fun it -> p it || q it
  | Not p ->
    let p = tester p v in
    fun it -> not (p it)
  | In_class _ | Is_a _ | Name_is _ | Opaque _ -> test p v

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
   top of its parent chain when the match is inside a sub-object;
   [Item.none] for a relationship or an unknown id. *)
let rec root_owner db id =
  let it = Db_state.get_item db id in
  match it.Item.body with
  | Item.Dependent { parent; _ } -> root_owner db parent
  | Item.Independent -> it
  | Item.Relationship -> Item.none

(* A growing array: its first [n] cells are the elements, the rest
   hold [fill] until they are written; full, it is copied into one twice
   its size. *)
type 'a buf = { mutable items : 'a array; mutable n : int; fill : 'a }

let buf fill cap = { items = Array.make cap fill; n = 0; fill }

let push b x =
  if b.n = Array.length b.items then begin
    let a = Array.make (max 8 (2 * b.n)) b.fill in
    Array.blit b.items 0 a 0 b.n;
    b.items <- a
  end;
  b.items.(b.n) <- x;
  b.n <- b.n + 1

(* the elements, in the buffer's own array when it is full *)
let contents b = if b.n = Array.length b.items then b.items else Array.sub b.items 0 b.n

(* A node's candidates: an id set, or the owners a text lookup fetched,
   ascending by id and distinct, which the fold reads without fetching
   them again. *)
type cands = Ids of Ident.Set.t | Owners of Item.t buf

let by_id (a : Item.t) (b : Item.t) = Ident.compare a.Item.id b.Item.id

(* Fetched owners sorted by id in place (the unused cells hold
   [Item.none], whose id is above every item's), then deduplicated: the
   first of each run kept. *)
let sort_owners o =
  let a = o.items and n = ref 0 in
  Array_sort.sort by_id a;
  for i = 0 to o.n - 1 do
    if !n = 0 || by_id a.(!n - 1) a.(i) <> 0 then begin
      a.(!n) <- a.(i);
      incr n
    end
  done;
  o.n <- !n

let ids = function
  | Ids s -> s
  | Owners o ->
    let b = Ident.Set.builder () in
    for i = 0 to o.n - 1 do
      Ident.Set.push b o.items.(i).Item.id
    done;
    Ident.Set.build b

let cardinal = function Ids s -> Ident.Set.cardinal s | Owners o -> o.n

(* An intersection with fetched owners keeps them, in order, filtered
   in place. *)
let inter x y =
  match (x, y) with
  | Ids a, Ids b -> Ids (Ident.Set.inter a b)
  | Owners o, other | other, Owners o ->
    let s = ids other and n = ref 0 in
    for i = 0 to o.n - 1 do
      if Ident.Set.mem o.items.(i).Item.id s then begin
        o.items.(!n) <- o.items.(i);
        incr n
      end
    done;
    o.n <- !n;
    Owners o

let long_enough n = String.length n >= Text_index.min_needle

(* The lookups of the needles worth probing: long enough for a trigram
   and rare enough to beat the scan. Dropping a needle is always sound —
   the rest bound an inexact superset, which the re-test narrows — so a
   needle whose rarest posting list covers over a tenth of the documents
   ([cutoff]) is answered by the scan instead of by walking a posting
   list of comparable size (tiny lists always pass: below 64 candidates
   the walk is cheap at any ratio). Each needle is looked up once; the
   probe intersects the same lookups. *)
let rec worthy tx cutoff = function
  | [] -> []
  | n :: ns ->
    let rest = worthy tx cutoff ns in
    if not (long_enough n) then rest
    else
      let l = Text_index.lookup tx n in
      if Text_index.estimate tx l <= cutoff then l :: rest else rest

let probe_worthy tx needles = worthy tx (max 64 (Text_index.doc_count tx / 10)) needles

type text_probe = {
  tp_path : string;  (* "" = any path *)
  tp_needles : string list;
  tp_trigrams : int;
  tp_postings : int;
  tp_candidates : int;
  tp_verified : int;
}

(* What one walk consulted. Every text node made one lookup or fell
   back to the scan, and both are counted; the lists, newest first, are
   kept only when [explain] reads them. *)
type consulted = {
  mutable lookups : int;
  mutable fallbacks : int;
  mutable classes : string list;
  mutable names : string list;
  mutable texts : text_probe list;
}

(* The plan: the candidate ids and their exactness, or why the walk
   gave up, and what it consulted. Extent sets are shared, not copied:
   [In_class] is the view's set itself, and [Is_a] of a leaf class is a
   union with the empty set. *)
let walk ~explain v p =
  let ext = View.extents v and schema = View.schema v and db = View.db v in
  let w = { lookups = 0; fallbacks = 0; classes = []; names = []; texts = [] } in
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
        let found = buf Item.none 8 in
        let add id =
          let o = root_owner db id in
          if o != Item.none then push found o
        in
        let pr = Text_index.query_probe tx ~path worthy add in
        sort_owners found;
        w.lookups <- w.lookups + 1;
        if explain then
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
        Ok (Owners found, List.compare_lengths worthy needles = 0))
  in
  let rec go p =
    match p with
    | In_class cls ->
      if explain then w.classes <- cls :: w.classes;
      Ok (Ids (Db_state.obj_extent ext cls), true)
    | Is_a cls ->
      if explain then w.classes <- (cls ^ " (and descendants)") :: w.classes;
      Ok
        ( Ids
            (List.fold_left
               (fun acc c -> Ident.Set.union acc (Db_state.obj_extent ext c))
               Ident.Set.empty
               (Schema.class_descendants_or_self schema cls)),
          true )
    | Name_is n ->
      if explain then w.names <- n :: w.names;
      let id = Db_state.find_id_by_name ext n in
      Ok (Ids (Option.fold ~none:Ident.Set.empty ~some:Ident.Set.singleton id), true)
    | Matches { needles; _ } when not (List.exists long_enough needles) ->
      fallback "no needle reaches trigram length (3 bytes)"
    | Matches { path; needles } -> text ~path needles
    | And (p, q) -> (
      (* both sides are walked, in order, so every text node counts *)
      let a = go p in
      match (a, go q) with
      | Ok (a, x), Ok (b, y) -> Ok (inter a b, x && y)
      | Ok (s, _), Error _ | Error _, Ok (s, _) -> Ok (s, false)
      | (Error _ as e), Error _ -> e)
    | Or (p, q) -> (
      let a = go p in
      match (a, go q) with
      | Ok (a, x), Ok (b, y) -> Ok (Ids (Ident.Set.union (ids a) (ids b)), x && y)
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
  match walk ~explain:true v p with
  | Error reason, _ -> Scan { reason }
  | Ok (cands, exact), w ->
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
        candidates = ids cands;
        est_candidates = cardinal cands;
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

(* The plan [select] and [count] run, as the text hit/fallback
   counters count it: executing a plan, not explaining it, is what they
   count. *)
let run v p =
  let bound, w = walk ~explain:false v p in
  Db_state.note_text_queries (View.db v) ~hits:w.lookups ~fallbacks:w.fallbacks;
  bound

(* the hits a plan can have at most, or none known for a scan *)
let bound_size = function Ok (c, _) -> cardinal c | Error _ -> 0

(* Fold [f] over the live normal independent objects satisfying [p]:
   the plan's candidates, re-checked on the state fetched with them and
   re-tested unless the plan is exact, or for an unbounded predicate the
   item table, tested: one pass over it, where the extents' ids would
   each cost a lookup by id. *)
let fold_hits v p bound f init =
  let db = View.db v in
  let test = match bound with Ok (_, true) -> fun _ -> true | Ok (_, false) | Error _ -> tester p v in
  let keep it acc = if View.live_normal v it && test it then f it acc else acc in
  match bound with
  | Ok (Owners o, _) ->
    let acc = ref init in
    for i = 0 to o.n - 1 do
      acc := keep o.items.(i) !acc
    done;
    !acc
  | Ok (Ids ids, _) -> Ident.Set.fold (fun id acc -> keep (Db_state.get_item db id) acc) ids init
  | Error _ ->
    Db_state.fold_items db ~init ~f:(fun acc it ->
        match it.Item.body with
        | Item.Independent -> keep it acc
        | Item.Dependent _ | Item.Relationship -> acc)

(* A hit's full name: an independent object's own, read from its state
   in place. *)
let hit_name v it =
  match View.state v it with
  | Item.Obj o -> o.name
  | Item.Rel _ | Item.Absent -> None

(* The hits by name (unique among live objects; unnamed ones first),
   ties by id, gathered into one array sized by the plan: each name is
   read once and an index order sorted. Both selects sort with
   [Array_sort], a merge sort that allocates one scratch array, none for
   hits already in order. *)
let select v p =
  let bound = run v p in
  let hits = buf Item.none (bound_size bound) in
  fold_hits v p bound (fun it () -> push hits it) ();
  let hits = contents hits in
  let names = Array.map (hit_name v) hits in
  let order = Array.init (Array.length hits) Fun.id in
  Array_sort.sort
    (fun i j ->
      match Option.compare String.compare names.(i) names.(j) with
      | 0 -> by_id hits.(i) hits.(j)
      | c -> c)
    order;
  Array.fold_right (fun i acc -> hits.(i) :: acc) order []

(* The named hits' names, in one array sorted in place: unique, so no
   tie to break. *)
let select_names v p =
  let bound = run v p in
  let names = buf "" (bound_size bound) in
  fold_hits v p bound
    (fun it () -> match hit_name v it with Some n -> push names n | None -> ())
    ();
  let names = contents names in
  Array_sort.sort String.compare names;
  names

let count v p = fold_hits v p (run v p) (fun _ n -> n + 1) 0

let select_rels v ~assoc =
  let ext = View.extents v in
  Schema.assoc_descendants_or_self (View.schema v) assoc
  |> List.fold_left
       (fun acc a -> Ident.Set.union acc (Db_state.rel_extent ext a))
       Ident.Set.empty
  |> Ident.Set.elements
  |> List.filter_map (Db_state.find_item (View.db v))
