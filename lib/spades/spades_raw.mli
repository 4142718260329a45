(** The pre-SEED SPADES configuration: the same specification-level
    workload implemented over plain in-memory structures with no DBMS —
    no consistency checking, no versions, no completeness reporting.

    The paper reports that SPADES-on-SEED "has become considerably
    slower, but much more flexible"; benchmark S1 drives identical
    workloads through {!Spades} and this module to measure that
    slowdown. *)

type t

val create : unit -> t

val note_thing : t -> string -> ?description:string -> unit -> unit
val add_keyword : t -> string -> string -> unit

val add_flow : t -> data:string -> action:string -> Spades.flow -> unit
val refine_flow : t -> data:string -> action:string -> Spades.flow -> unit
(** Raw structures have no relationship identity; refinement rewrites
    the triple in place. *)

val object_count : t -> int
val flow_count : t -> int
