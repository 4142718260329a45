(** Binary encoding primitives for the storage layer.

    Little-endian, length-prefixed, with variable-length integers
    (LEB128) for compactness — item ids and version components are
    typically tiny. All SEED persistence (schema, items, version tree)
    is expressed in terms of these primitives. *)

module Writer : sig
  type t

  val create : ?initial_size:int -> unit -> t
  val contents : t -> string
  val length : t -> int

  val u8 : t -> int -> unit
  (** One byte; raises [Invalid_argument] outside [0..255]. *)

  val varint : t -> int -> unit
  (** Signed LEB128 (zig-zag). *)

  val i64 : t -> int64 -> unit
  (** Fixed 8 bytes, little-endian. *)

  val float : t -> float -> unit
  val bool : t -> bool -> unit

  val string : t -> string -> unit
  (** Varint length prefix followed by the raw bytes. *)

  val option : t -> (t -> 'a -> unit) -> 'a option -> unit
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
end

module Reader : sig
  type t

  val of_string : string -> t

  val at_end : t -> bool

  val u8 : t -> (int, Seed_util.Seed_error.t) result
  val varint : t -> (int, Seed_util.Seed_error.t) result
  val i64 : t -> (int64, Seed_util.Seed_error.t) result
  val float : t -> (float, Seed_util.Seed_error.t) result
  val bool : t -> (bool, Seed_util.Seed_error.t) result
  val string : t -> (string, Seed_util.Seed_error.t) result

  val option :
    t ->
    (t -> ('a, Seed_util.Seed_error.t) result) ->
    ('a option, Seed_util.Seed_error.t) result

  val list :
    t ->
    (t -> ('a, Seed_util.Seed_error.t) result) ->
    ('a list, Seed_util.Seed_error.t) result

  val expect_end : t -> (unit, Seed_util.Seed_error.t) result
  (** Fails with [Corrupt] when trailing bytes remain. *)
end
