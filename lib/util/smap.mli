(** Persistent string-keyed maps with id-set multimap helpers.

    The copy-on-write database root stores its per-class and
    per-association extents as [Ident.Set.t t], and its adjacency
    (children by parent, relationships by endpoint, inheritors by
    pattern) as [Ident.Set.t Ident.Map.t]: updates share structure with
    the previous map, so grabbing a snapshot of the whole root is a
    pointer copy and never blocks or copies readers. {!member} serves
    both key types. *)

include Map.S with type key = string

val ids : Ident.Set.t option -> Ident.Set.t
(** The set a [find_opt] found under a key, empty when absent. *)

val member : add:bool -> Ident.t -> Ident.Set.t option -> Ident.Set.t option
(** The [update] step that enters ([~add:true]) or drops an id in the
    set under a key, dropping the key when its set becomes empty:
    [update k (member ~add id) m]. *)

val all_ids : Ident.Set.t t -> Ident.t list
(** Union of all sets (keys are disjoint extents, so no duplicates). *)
