(** Trigram index over string values — the access path behind
    [Query.contains]/[Query.matches] (DESIGN.md §14).

    Each indexed string (a document) is owned by exactly one carrier
    item. Two immutable packed tiers, [main] and a smaller [recent],
    each hold documents in carrier order — parallel arrays of id, path
    and the item's own string — and per trigram a posting of the tier's
    documents containing it: a bitmap over the tier's slots or a list of
    varint slot gaps, whichever is smaller. A small persistent overlay
    holds the carriers changed since. A carrier's newest entry shadows
    its older ones; a removal that must shadow a tier entry is a
    tombstone. Once the overlay passes a fixed share of the documents it
    is merged into [recent], and once [recent] passes a fixed share of
    [main] it is merged into [main], so a fold rewrites the small tier
    and [main] is rewritten several times less often. Queries intersect
    the needle's postings in each tier, skip shadowed slots, verify each
    candidate against its held text, and test the overlay directly: the
    answer is exact. Nothing reachable from a [t] is mutated, so it
    rides in the copy-on-write database root: snapshots freeze it, and
    rollback restores it by root swap. *)

open Seed_util

type t

val empty : t

val doc_count : t -> int
(** Number of indexed carriers (documents). *)

val min_needle : int
(** Shortest needle the index can answer (3 bytes — one trigram).
    Shorter needles must fall back to a scan. *)

val of_docs : int -> ((Ident.t -> path:string -> string -> unit) -> unit) -> t
(** [of_docs n iter] is the index of the [n] documents [iter f] passes
    to [f] as [f carrier ~path text], in strictly ascending carrier
    order, as one tier. The caller counts them, without building them.
    @raise Invalid_argument when [iter] passes another number. *)

val add_doc : t -> Ident.t -> path:string -> string -> t
(** Index a carrier's string value under its class path, replacing
    the carrier's previous document if it has one. *)

val remove_doc : t -> Ident.t -> t
(** Drop a carrier. No-op when the carrier is not indexed. *)

(** {1 Queries} *)

type probe = {
  pr_trigrams : int;  (** distinct needle trigrams consulted *)
  pr_postings : int;  (** posting entries across their lists, every tier *)
  pr_candidates : int;  (** tier and overlay documents text-tested *)
  pr_verified : int;  (** documents containing every needle *)
}

type lookup
(** A needle's distinct trigrams and their postings in every tier,
    rarest first, in one int array: looked up once, both to size the
    needle ({!estimate}) and to answer it ({!query_probe}). *)

val lookup : t -> string -> lookup
(** One binary search per distinct needle trigram and tier, the codes
    and their postings kept in int arrays and sorted in place: a few
    words per trigram, nothing boxed. Raises [Invalid_argument] below
    {!min_needle}. *)

val needle : lookup -> string

val estimate : t -> lookup -> int
(** Upper bound on the documents {!query_probe} would text-test for the
    needle: its rarest trigram's postings plus the overlay, so the
    planner can skip needles too common to beat the scan. *)

val query_probe : t -> path:string -> lookup list -> (Ident.t -> unit) -> probe
(** [query_probe t ~path lookups f] calls [f] on exactly the carriers
    whose text contains every looked-up needle, restricted to carriers
    at [path] unless it is [""], in one pass per tier over the union of
    the needles' trigrams: each once, in no particular order. It
    returns the access-path measurements [Query.explain] renders. The
    lookups must be of this [t]; raises [Invalid_argument] on an empty
    list. *)

val contains_all : string -> string list -> bool
(** Every needle occurs in the haystack: the containment test the index
    is equivalent to, allocation-free. An empty needle matches
    everything. *)

(** {1 Stats and equality} *)

type stats = {
  trigrams : int;  (** distinct trigrams across the tiers *)
  postings : int;  (** posting slots of both tiers, shadowed ones included *)
  docs : int;
  bytes : int;
      (** as laid out: encoded postings, the words of the per-trigram and
          per-slot arrays, overlay nodes (not the strings, which the items
          hold) *)
  tiers : int;  (** 1, or 2 while [recent] holds entries *)
}

val stats : t -> stats

val equal : t -> t -> bool
(** Equality of the logical documents [(carrier, path, text)] — the
    soak harness checks the maintained index against a rebuild. *)
