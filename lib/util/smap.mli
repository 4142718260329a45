(** Persistent string-keyed maps with id-set multimap helpers.

    The copy-on-write database root stores its per-class and
    per-association extents as [Ident.Set.t t]: updates share structure
    with the previous map, so grabbing a snapshot of the whole root is a
    pointer copy and never blocks or copies readers. *)

include Map.S with type key = string

val set : Ident.Set.t t -> string -> Ident.Set.t
(** The id set under a key, empty when absent. *)

val add_id : Ident.Set.t t -> string -> Ident.t -> Ident.Set.t t

val remove_id : Ident.Set.t t -> string -> Ident.t -> Ident.Set.t t
(** Drops the key entirely when its set becomes empty. *)

val all_ids : Ident.Set.t t -> Ident.t list
(** Union of all sets (keys are disjoint extents, so no duplicates). *)
