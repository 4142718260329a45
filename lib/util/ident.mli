(** Internal item identifiers.

    Every data item in a SEED database — independent object, dependent
    object, or relationship — carries a unique identifier allocated from
    the database's generator. Identifiers are never reused, which is what
    makes logical deletion and version stamping safe. *)

type t
(** An opaque item identifier. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

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
module Set : Set.S with type elt = t
module Tbl : Hashtbl.S with type key = t
