(** The wire frame: one length-prefixed, CRC-checked message.

    Every message between a SEED client and server travels as one frame:

    {v
      offset 0   magic "SENF"          (4 bytes)
      offset 4   protocol version      (1 byte, currently 3)
      offset 5   payload length        (4 bytes, little-endian)
      offset 9   CRC-32 of the payload (4 bytes, little-endian)
      offset 13  payload               (length bytes)
    v}

    The CRC turns wire corruption into a detected [Corrupt] error
    instead of a misparsed message, exactly as journal frames do on
    disk; the length prefix bounds reads so a corrupted length cannot
    make the receiver allocate without limit. Framing errors are
    {e connection-fatal}: a byte stream that lost sync cannot be
    trusted again, so the peer drops the connection and the client
    reconnects and resumes its session. *)

val version : int
(** Current frame/protocol version (3). A server refuses a hello whose
    version it does not speak, so old clients fail loudly and early. *)

val header_size : int
(** 13 bytes. *)

val kept_buffer : int
(** 64 KiB: the largest buffer a connection keeps from one frame to the
    next, for either direction. A larger frame gets a buffer of its own,
    so no connection holds on to a large one. *)

val encode : string -> string
(** [encode payload] is the full frame for [payload]. Raises
    [Invalid_argument] if the payload exceeds 16 MiB, the bound above
    which a length field is treated as corruption. *)

val start : Buffer.t -> unit
(** [start w] empties [w] and reserves the header: the payload is then
    written after it, and {!seal} makes the frame. *)

val seal : Buffer.t -> string
(** [seal w] is the frame of the payload written to [w] since {!start}:
    header, length and CRC filled in, the bytes copied out once. It
    equals [encode] of that payload. Raises [Invalid_argument] as
    {!encode} does. *)

val payload_length : string -> (int, Seed_util.Seed_error.t) result
(** [payload_length h] checks the magic and the length bound of the
    header at the front of [h] and returns the payload length. *)

val check : string -> len:int -> (int, Seed_util.Seed_error.t) result
(** [check s ~len] checks the frame held in the first [len] bytes of
    [s], in place: its header, that [len] is the header plus the
    payload length, and the payload CRC. It returns the payload length;
    the payload starts at [header_size]. Every failure is [Corrupt]. *)

val decode : string -> (string, Seed_util.Seed_error.t) result
(** [decode frame] parses a complete frame held in one string (the
    in-memory transports deliver frames whole) and returns the payload;
    trailing bytes, bad magic, bad length or a CRC mismatch are
    [Corrupt]. *)
