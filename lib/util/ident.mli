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

(** Maps from identifiers: {!Set}'s tree, each leaf holding its 32 ids'
    values in an array. A leaf of [n] bindings is [n + 5] words and a
    branch 5, so a dense run of ids costs about 1.3 words per binding
    (a balanced tree: 6), a sparse map at most 11 (a leaf of its own
    under a branch). {!fold}, {!iter} and {!bindings} go in increasing
    {!compare} order. Maps are persistent. {!find_or}, {!mem} and
    {!iter} allocate nothing. *)
module Map : sig
  type key = t
  type 'a t

  val empty : 'a t
  val is_empty : 'a t -> bool
  val mem : key -> 'a t -> bool

  val find_or : default:'a -> key -> 'a t -> 'a
  (** The id's value, [default] when the map binds none. *)

  val add : key -> 'a -> 'a t -> 'a t
  (** The map itself ([==]) when it binds the id to that value ([==])
      already. *)

  val add_fresh : bool ref -> key -> 'a -> 'a t -> 'a t
  (** {!add}, setting the flag to whether the map did not bind the id:
      one walk, for a caller that counts bindings. *)

  val update : key -> ('a option -> 'a option) -> 'a t -> 'a t
  (** The map itself ([==]) when [f] returns [None] for an unbound id,
      or [Some] of the bound value ([==]) for a bound one. *)

  val remove : key -> 'a t -> 'a t
  (** The map itself ([==]) when it binds no such id. *)

  val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
  val iter : (key -> 'a -> unit) -> 'a t -> unit
  val cardinal : 'a t -> int
  val bindings : 'a t -> (key * 'a) list
end

module Tbl : Hashtbl.S with type key = t
