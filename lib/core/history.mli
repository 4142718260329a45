(** History retrieval and navigation.

    SEED defines additional operations for history retrieval and
    navigation, e.g. "find all versions of object ['AlarmHandler'],
    beginning with version 2.0" (paper, §Versions). *)

open Seed_util

type entry = {
  version : Version_id.t;
  state : Item.state;
  seq : int;  (** creation order of the version *)
}

val stamps_of : Database.t -> Ident.t -> entry list
(** Every saved version of an item, in version-creation order. These are
    the {e stored} states (the deltas); versions between two stamps
    resolve to the earlier stamp. *)

val versions_of : Database.t -> Ident.t -> ?from_:Version_id.t -> unit ->
  (entry list, Seed_error.t) result
(** Stamps of an item, optionally restricted to versions created at or
    after [from_] — the paper's "beginning with version 2.0". *)

val versions_of_object :
  Database.t -> string -> ?from_:Version_id.t -> unit ->
  (entry list, Seed_error.t) result
(** Same, addressing an independent object by name. The name is resolved
    in the current state first and then across history (an object
    renamed since keeps its identity). *)

val state_in : Database.t -> Ident.t -> Version_id.t ->
  (Item.state, Seed_error.t) result
(** The item's resolved state in the view of the given version
    ([Absent] when it does not exist there). *)

val changed_between :
  Database.t -> Version_id.t -> Version_id.t ->
  (Ident.t list, Seed_error.t) result
(** Items whose resolved state differs between two versions. *)

val version_path : Database.t -> Version_id.t -> Version_id.t list
(** Root-first chain of versions leading to the given one. *)

val pp_entry : Format.formatter -> entry -> unit
