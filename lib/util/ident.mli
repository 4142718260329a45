(** Internal item identifiers.

    Every data item in a SEED database — independent object, dependent
    object, or relationship — carries a unique identifier allocated from
    the database's generator. Identifiers are never reused, which is what
    makes logical deletion and version stamping safe. *)

type t
(** An opaque item identifier. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val to_string : t -> string
(** Renders as ["#<n>"]. *)

val pp : Format.formatter -> t -> unit

val to_int : t -> int
(** Stable integer image, used by the storage codec. *)

val of_int : int -> t
(** Inverse of {!to_int}; used by the storage codec only. *)

module Gen : sig
  type id := t

  type t
  (** A monotonic identifier generator. *)

  val create : unit -> t
  (** A fresh generator whose first identifier is [#1]. *)

  val next : t -> id
  (** Allocate the next identifier. *)

  val mark_used : t -> id -> unit
  (** Inform the generator that [id] is in use (after loading a database
      from storage), so it will never be handed out again. *)

  val current : t -> int
  (** Highest integer handed out so far, for persistence. *)
end

module Map : Map.S with type key = t

(** Sets of identifiers.

    Ids are never reused, so the engine's id sets (extents, children,
    the delta set) are dense runs of small integers. A set is a
    big-endian Patricia tree whose leaves are bitmaps of 32 ids: a leaf
    is 3 words, a branch 5, so a dense run costs about 8 words per 32
    members (¼ word each) where a balanced tree costs 5 words per
    member; a sparse set costs at most 8 words per member.

    {!fold}, {!iter}, {!exists} and {!elements} visit members in
    increasing {!compare} order, negative ids included. Sets are
    persistent and never mutated. The tree of a set is unique, so
    structural equality is set equality; {!add} of a member and
    {!remove} of a non-member return the set itself ([==]). *)
module Set : sig
  type elt = t
  type t

  val empty : t
  val is_empty : t -> bool
  val mem : elt -> t -> bool
  val add : elt -> t -> t
  val singleton : elt -> t
  val remove : elt -> t -> t
  val union : t -> t -> t
  val inter : t -> t -> t
  val fold : (elt -> 'a -> 'a) -> t -> 'a -> 'a
  val iter : (elt -> unit) -> t -> unit
  val exists : (elt -> bool) -> t -> bool
  val elements : t -> elt list
  val cardinal : t -> int

  type builder
  (** Builds a set from ids given in increasing order, in one pass:
      each leaf is made once, each branch once, and nothing is copied. *)

  val builder : unit -> builder

  val push : builder -> elt -> unit
  (** Add an id greater than every id pushed before.
      @raise Invalid_argument on an id in a lower leaf than the last. *)

  val build : builder -> t
  (** The set of the ids pushed so far; pushing may go on after. *)
end

module Tbl : Hashtbl.S with type key = t
