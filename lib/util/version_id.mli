(** Decimal classification labels for versions.

    Versions are identified by a decimal classification; the
    classification tree reflects the version history (paper, §Versions).
    We use an RCS-like labelling over an explicit version tree:

    - trunk versions are [1.0], [2.0], [3.0], ...;
    - alternatives derived from trunk version [m.0] are labelled
      [m.1], [m.2], ...;
    - versions derived from a branch version [l] are labelled
      [l.1], [l.2], ... (appending a component).

    The label encodes nothing by itself; the authoritative parent
    relation lives in the version tree ({!Seed_core.Versioning}). *)

type t = private int list
(** A non-empty list of non-negative integers. *)

val trunk : int -> t
(** [trunk m] is the label [m.0] of the [m]-th trunk version. [m >= 1]. *)

val is_trunk : t -> bool
(** True for two-component labels ending in [0]. *)

val major : t -> int
(** First component. *)

val child : t -> int -> t
(** [child l k] is the label of the [k]-th alternative derived from [l]:
    [m.k] when [l] is trunk [m.0], and [l.k] otherwise. [k >= 1]. *)

val equal : t -> t -> bool

val to_string : t -> string
(** Dotted rendering, e.g. ["2.0"], ["1.1.3"]. *)

val pp : Format.formatter -> t -> unit

val of_string : string -> (t, Seed_error.t) result
(** Parses a dotted label; fails with [Unknown_version] on malformed
    input. *)

val of_ints : int list -> (t, Seed_error.t) result
(** Validates and converts a raw component list (storage codec). *)

module Map : Map.S with type key = t
(** Ordered lexicographically, which is creation order on the trunk. *)
