(** Binary encoding primitives for the storage layer.

    Little-endian, length-prefixed, with variable-length integers
    (LEB128) for compactness — item ids and version components are
    typically tiny. All SEED persistence (schema, items, version tree)
    and the network wire format are expressed in terms of these
    primitives. *)

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

  val iter : t -> (t -> 'a -> unit) -> int -> (('a -> unit) -> unit) -> unit
  (** [iter w f n each] writes exactly what [list w f l] writes for the
      [n]-element list [l] whose elements [each] yields in order, without
      building [l]. *)
end

(** Direct-style decoding. The primitives return plain values; on
    truncated or malformed input they raise a private exception that
    only {!run} catches, turning it into [Error (Corrupt _)] — it never
    escapes {!run}. A decoder is straight-line code over [t], called
    only through {!run}; a value it must refuse is {!fail}ed. *)
module Reader : sig
  type t

  val run : string -> (t -> 'a) -> ('a, Seed_util.Seed_error.t) result
  (** [run s f] decodes [s] with [f], which must consume all of [s]:
      trailing bytes are [Corrupt] like truncation. *)

  val fail : string -> 'a
  (** Abort the enclosing {!run} with [Corrupt msg] (a bad tag, a value
      out of range). *)

  val u8 : t -> int
  val varint : t -> int
  val i64 : t -> int64
  val float : t -> float
  val bool : t -> bool
  val string : t -> string

  val name : t -> string
  (** A {!string} expected to repeat — a class, role or association
      name: equal names read in one {!run} share one copy. *)

  val option : t -> (t -> 'a) -> 'a option
  val list : t -> (t -> 'a) -> 'a list

  val iter : t -> (t -> unit) -> unit
  (** Reads a list's length prefix and calls [f] once per element, in
      order — {!list} without building the list. *)
end
