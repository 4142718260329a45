(** The item table of a root: every item, by id.

    Ids are handed out in ascending order and never reused, so the
    table is an immutable {e base} array of items sorted by id plus a
    persistent {e overlay} map of the items written since that base was
    built — the paper's delta storage (a base, plus what changed since
    it), and the layout of {!Text_index}'s tiers. A lookup probes the
    overlay, then the base slot its id falls at when no id below it is
    missing, and binary-searches the base when some are (ids burned by
    a rolled-back transaction). A write goes to the overlay; once the
    overlay passes a fixed share of the base, the next write folds it
    into a new base. No base is written after it is built, so a table
    is a value: a pinned root keeps its own, a rollback swaps back to
    the old one, and readers on other domains need no lock. *)

open Seed_util

type t

val empty : t

val count : t -> int
(** The number of items, O(1). *)

val get : t -> Ident.t -> Item.t
(** The item of that id, {!Item.none} when there is none; allocates
    nothing. *)

val find : t -> Ident.t -> Item.t option

val add : t -> Item.t -> t
(** The table with the item stored under its id, replacing the one
    there.
    @raise Invalid_argument on {!Item.none}. *)

val iter : (Item.t -> unit) -> t -> unit
(** Items in increasing id order; allocates nothing per item. *)

val fold : ('a -> Item.t -> 'a) -> 'a -> t -> 'a
(** {!iter}'s order. *)

val map : (Item.t -> Item.t) -> t -> t
(** [f] applied to every item in id order, into one new base; [f] must
    keep the item's id. *)

(** {1 Building from a sorted stream} *)

type builder
(** Builds a table from items given in increasing id order into one
    base array, allocated on the first item for the capacity given. *)

val builder : int -> builder
(** A builder for at most that many items. *)

val push : builder -> Item.t -> unit
(** Add an item whose id is above every id pushed before.
    @raise Invalid_argument past the capacity, out of order, or after
    {!build}. *)

val build : builder -> t
(** The table of the items pushed; the builder is spent. *)
