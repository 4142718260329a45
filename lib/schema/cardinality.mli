(** Cardinality bounds [min..max].

    Cardinalities appear in two places in a SEED schema (paper, Fig. 2):
    on sub-classes ("any object of class [Data] may have from zero up to
    16 objects of class [Data.Text]") and on association roles ("[Data]
    must have at least one [Read] relationship with an instance of
    [Action]").

    The paper partitions this information: the {e maximum} is consistency
    information, checked on every update; the {e minimum} is completeness
    information, checked only on demand. *)

type t = private { min : int; max : int option }
(** [max = None] renders as [*] (unlimited). Invariants: [min >= 0] and
    [max >= min] when present. *)

val make : int -> int option -> t
(** [make min max]; raises [Invalid_argument] on violated invariants. *)

val opt : t
(** [0..1]. *)

val one : t
(** [1..1]. *)

val any : t
(** [0..*]. *)

val at_least : int -> t
(** [n..*]. *)

val between : int -> int -> t
(** [between lo hi] is [lo..hi]. *)

val equal : t -> t -> bool

val within_max : t -> int -> bool
(** [within_max c n] — does a count of [n] respect the maximum bound? *)

val meets_min : t -> int -> bool
(** [meets_min c n] — does a count of [n] satisfy the minimum bound? *)

val to_string : t -> string
(** Renders as ["0..16"], ["1..*"], ... *)

val pp : Format.formatter -> t -> unit
