(** Query combinators — an extension beyond the paper's prototype.

    The SEED prototype provides the procedures for data creation, update,
    and simple retrieval by name; retrieval with complex queries is not
    supported (paper, §Data manipulation). This module supplies the
    missing complex retrieval as composable predicates over a {!View} —
    so queries are version-aware and see inherited pattern information,
    like every other retrieval operation.

    Predicates are reified: one walk over a predicate's shape yields its
    plan, which {!select} and {!count} run and {!explain} renders.
    Index-recognisable predicates ({!in_class}, {!is_a}, {!name_is},
    {!contains}, {!matches}, and conjunctions/disjunctions of them) are
    answered from per-class id sets, a name index and the trigram index
    instead of enumerating every object — the view's extents
    ({!View.extents}): the current root's on a current view, the
    materialized version's on a version view. Opaque predicates
    ({!of_fun}, {!is_incomplete}) and negations fall back to a scan of
    the view's object extents — same results, different cost. *)

type pred
(** A predicate over live items of a view, as an inspectable term. *)

val of_fun : (View.t -> Item.t -> bool) -> pred
(** Wrap an arbitrary function as a predicate. Opaque to the planner:
    selections over it always scan. *)

val test : pred -> View.t -> Item.t -> bool
(** Evaluate a predicate on one item. *)

(** {1 Object predicates} *)

val in_class : string -> pred
(** Exactly this classification. *)

val is_a : string -> pred
(** This class or any of its specializations — the generalization-aware
    membership test. *)

val name_is : string -> pred

val contains : string -> string -> pred
(** [contains path needle]: the object itself or one of its live
    descendant sub-objects carries a string value, classified exactly
    [path] ([""] = any class path), containing [needle] as a substring.
    Information viewed through pattern inheritance is not searched.
    Planned from the trigram index ({!Text_index}): posting-list
    intersection plus a check of the held text yields the candidates;
    needles shorter than 3 bytes or a disabled index fall back to the
    scan — same results. *)

val matches : string -> string list -> pred
(** [matches path needles]: like {!contains} but conjunctive — one
    carrier at [path] must contain {e all} the needles. Needles below
    trigram length or too common to beat the scan are dropped from the
    planner's one lookup, which makes the plan inexact (the re-test then
    applies them); if none remain, the query scans. *)

val is_incomplete : pred
(** The object has at least one completeness diagnostic. *)

(** {1 Combinators} *)

val ( &&& ) : pred -> pred -> pred
val ( ||| ) : pred -> pred -> pred
val not_ : pred -> pred

(** {1 Execution} *)

val select : View.t -> pred -> Item.t list
(** All live normal independent objects satisfying the predicate, in
    name order ([String.compare] on full names, which are unique). One
    fold checks each candidate live and normal and re-tests it only when
    the plan is inexact (or scans); names are derived and sorted once. *)

val select_names : View.t -> pred -> string list
(** The full names of {!select}'s result, in its order — a served
    read's reply. *)

val count : View.t -> pred -> int
(** [List.length (select v p)], from the same loop, with no sort. *)

val select_rels : View.t -> assoc:string -> Item.t list
(** Live normal relationships of this association or a specialization. *)

(** {1 Plan explanation} *)

type text_probe = {
  tp_path : string;  (** attribute path probed; [""] = any path *)
  tp_needles : string list;
      (** the needles the lookup intersected: those of the node long and
          rare enough to probe, in the predicate's order *)
  tp_trigrams : int;  (** distinct needle trigrams consulted *)
  tp_postings : int;  (** posting entries across their lists *)
  tp_candidates : int;  (** carriers surviving the intersection *)
  tp_verified : int;  (** carriers whose text contains every needle *)
}
(** One text-index lookup the plan makes — one per [contains]/[matches]
    node answered from the index — with its access-path measurements. *)

type plan =
  | Indexed of {
      via : string;  (** where the candidate ids come from *)
      classes : string list;  (** class extents the planner consults *)
      names : string list;  (** name-index lookups the planner makes *)
      texts : text_probe list;  (** text-index lookups the planner makes *)
      candidates : Seed_util.Ident.Set.t;
          (** the ids {!select} folds over, as the extents stand now *)
      est_candidates : int;  (** their cardinality *)
      exact : bool;
          (** every live normal candidate matches, so {!select} re-tests
              none of them *)
    }
  | Scan of { reason : string }

val explain : View.t -> pred -> plan
(** The plan {!select}/{!count} run for this predicate on this view: an
    indexed candidate set (with its exactness and every lookup the
    planner made) or a full scan and why. It is the same walk over the
    predicate, without the fold; the text lookups are made, but the
    text hit/fallback counters ({!Database.stats}) are left alone — they
    count executed queries only. *)

val pp_plan : Format.formatter -> plan -> unit
