(** Trigram index over string values — the access path behind
    [Query.contains]/[Query.matches] (DESIGN.md §14).

    Each indexed string (a document) is owned by exactly one carrier
    item. An immutable packed base holds the documents in carrier order
    — id, path and the item's own string — and per trigram a sorted
    array of the base documents containing it; a small persistent
    overlay holds the carriers changed since the base was built, and is
    merged into a new base once it passes a fixed share of the
    documents. Queries intersect the needle's base postings, verify each
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

val of_docs : (Ident.t * string * string) list -> t
(** The index of [(carrier, path, text)] documents in strictly ascending
    carrier order, built in two passes (count, then fill). *)

val add_doc : t -> Ident.t -> path:string -> string -> t
(** Index a carrier's string value under its class path, replacing
    the carrier's previous document if it has one. *)

val remove_doc : t -> Ident.t -> t
(** Drop a carrier. No-op when the carrier is not indexed. *)

(** {1 Queries} *)

type probe = {
  pr_trigrams : int;  (** distinct needle trigrams consulted *)
  pr_postings : int;  (** base posting entries across their lists *)
  pr_candidates : int;  (** base and overlay documents text-tested *)
  pr_verified : int;  (** documents containing every needle *)
}

val query : t -> ?path:string -> string list -> Ident.Set.t
(** Exactly the carriers whose text contains every needle (restricted
    to carriers at [path] when given), in one pass over the union of the
    needles' trigrams. Raises [Invalid_argument] on an empty list or a
    needle shorter than {!min_needle}. *)

val query_probe : t -> ?path:string -> string list -> Ident.Set.t * probe
(** {!query} plus the access-path measurements [Query.explain]
    renders. *)

val estimate : t -> string -> int
(** Upper bound on the documents {!query} would text-test: the needle's
    rarest base posting plus the overlay. One lookup per needle trigram,
    so the planner can skip needles too common to beat the scan. Raises
    [Invalid_argument] below {!min_needle}. *)

val string_contains : string -> string -> bool
(** [string_contains hay needle] — the containment test the index is
    equivalent to, allocation-free. Empty needles match everything. *)

(** {1 Stats and equality} *)

type stats = {
  trigrams : int;  (** distinct trigrams in the base *)
  postings : int;  (** base posting slots *)
  docs : int;
  bytes : int;  (** estimate of posting slots, per-document arrays, overlay *)
}

val stats : t -> stats

val equal : t -> t -> bool
(** Equality of the logical documents [(carrier, path, text)] — the
    soak harness checks the maintained index against a rebuild. *)
