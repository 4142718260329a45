(** Persistent ident-keyed id-set multimaps: the adjacency extents of
    the copy-on-write database root (children by parent, relationships
    by endpoint, inheritors by pattern). *)

type t = Ident.Set.t Ident.Map.t

val empty : t
val get : t -> Ident.t -> Ident.Set.t
val add : t -> Ident.t -> Ident.t -> t
val remove : t -> Ident.t -> Ident.t -> t
