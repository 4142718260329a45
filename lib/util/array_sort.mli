(** Stable in-place sorting of arrays, for the read path.

    [Array.stable_sort] makes a closure for every merge, about four words
    per element in all; this sort allocates one scratch array, and
    nothing for an array already in order. *)

val sort : ('a -> 'a -> int) -> 'a array -> unit
(** [sort cmp a] sorts [a] in place by [cmp], equal elements kept in
    their order: a merge sort whose slices of at most 8 are sorted by
    insertion, merging through one scratch array of [a]'s length and
    skipping the merge of two halves already in order. An array in
    order, or of at most 8 elements, allocates nothing. *)
