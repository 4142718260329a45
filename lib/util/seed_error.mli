(** Errors raised or returned by SEED operations.

    Every user-facing operation of the database returns
    [('a, Seed_error.t) result]; the error type enumerates the reasons an
    operation can be refused so callers can react programmatically. *)

type t =
  | Unknown_class of string  (** no class with this path in the schema *)
  | Unknown_association of string  (** no association with this name *)
  | Unknown_role of string * string  (** association, role *)
  | Unknown_object of string  (** no object with this name *)
  | Unknown_item of string  (** no item with this id *)
  | Unknown_version of string  (** no version with this label *)
  | Unknown_procedure of string  (** attached procedure not registered *)
  | Duplicate_name of string  (** an independent object with this name exists *)
  | Duplicate_class of string  (** schema already defines this class *)
  | Duplicate_association of string  (** schema already defines this assoc *)
  | Duplicate_version of string  (** version label already exists *)
  | Invalid_cardinality of string  (** malformed min/max bounds *)
  | Cardinality_violation of {
      element : string;  (** class path or [assoc.role] *)
      subject : string;  (** item the violation is about *)
      bound : string;  (** human-readable bound, e.g. ["max 16"] *)
      count : int;  (** the offending count *)
    }
  | Type_mismatch of { expected : string; got : string }
  | Membership_violation of {
      expected : string;  (** class required by the schema element *)
      got : string;  (** class of the offending item *)
      context : string;  (** where the requirement comes from *)
    }
  | Cycle_detected of string  (** association with ACYCLIC violated *)
  | Not_in_generalization of { item_class : string; target : string }
  | Vetoed of { procedure : string; reason : string }
  | Pattern_violation of string  (** illegal operation involving a pattern *)
  | Version_frozen of string  (** attempt to modify a saved version *)
  | Unsaved_changes of string  (** switch away from a dirty current version *)
  | Locked of { item : string; holder : string }  (** write lock conflict *)
  | Invalid_operation of string  (** catch-all with explanation *)
  | Schema_violation of string  (** schema-level validation failure *)
  | Io_error of string  (** permanent storage layer failure *)
  | Io_transient of string
      (** transient storage failure (EINTR/EAGAIN class); safe to retry *)
  | Corrupt of string  (** storage integrity check failed *)
  | Deadlock of { victim : string; cycle : string list }
      (** lock wait-for cycle detected; [victim]'s locks were released *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering of an error. *)

val to_string : t -> string
(** [to_string e] is [Format.asprintf "%a" pp e]. *)

exception Error of t
(** Exception wrapper used by the [_exn] convenience variants. *)

val fail : t -> ('a, t) result
(** [fail e] is [Error e] (the [result] constructor, not the exception). *)

val wrap_io : (unit -> 'a) -> ('a, t) result
(** [wrap_io f] runs [f], converting [Sys_error] and [Unix.Unix_error]
    into results: EINTR/EAGAIN/EWOULDBLOCK become {!Io_transient} (safe
    to retry), everything else {!Io_error}. Other exceptions — notably a
    fault injector's crash — propagate untouched. *)

val ok_exn : ('a, t) result -> 'a
(** [ok_exn r] unwraps [r], raising {!Error} on failure. *)

val ( let* ) : ('a, t) result -> ('a -> ('b, t) result) -> ('b, t) result
(** Monadic bind for result-typed SEED operations. *)

val iter_result : ('a -> (unit, t) result) -> 'a list -> (unit, t) result
(** [iter_result f xs] applies [f] to each element, stopping at the first
    error. *)

val map_result : ('a -> ('b, t) result) -> 'a list -> ('b list, t) result
(** [map_result f xs] maps [f] over [xs], stopping at the first error. *)
