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

val magic : string
(** ["SENF"]. *)

val version : int
(** Current frame/protocol version (3). A server refuses a hello whose
    version it does not speak, so old clients fail loudly and early. *)

val header_size : int
(** 13 bytes. *)

val encode : string -> string
(** [encode payload] is the full frame for [payload]. Raises
    [Invalid_argument] if the payload exceeds 16 MiB, the bound above
    which a length field is treated as corruption. *)

val parse_header :
  string -> (int * int * int32, Seed_util.Seed_error.t) result
(** [parse_header h] checks magic and bounds on the 13 header bytes and
    returns [(version, payload_len, crc)]. *)

val decode : string -> (string, Seed_util.Seed_error.t) result
(** [decode frame] parses a complete frame held in one string (the
    in-memory transports deliver frames whole) and returns the payload;
    trailing bytes, bad magic, bad length or a CRC mismatch are
    [Corrupt]. *)
