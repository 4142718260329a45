open Seed_util.Seed_error
module Crc32 = Seed_storage.Crc32

let magic = "SENF"
let version = 3
let header_size = 13
let max_payload = 16 * 1024 * 1024
let kept_buffer = 65536

let get_u32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

(* The header of the payload held in [b] after it, in place. *)
let put_header b len =
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_uint8 b 4 version;
  Bytes.set_int32_le b 5 (Int32.of_int len);
  Bytes.set_int32_le b 9 (Crc32.digest_sub b ~pos:header_size ~len)

let encode payload =
  let len = String.length payload in
  if len > max_payload then invalid_arg "Frame.encode: payload too large";
  let b = Bytes.create (header_size + len) in
  Bytes.blit_string payload 0 b header_size len;
  put_header b len;
  Bytes.unsafe_to_string b

let blank_header = String.make header_size '\000'

let start w =
  Buffer.clear w;
  Buffer.add_string w blank_header

let seal w =
  let len = Buffer.length w - header_size in
  if len > max_payload then invalid_arg "Frame.seal: payload too large";
  let b = Bytes.create (Buffer.length w) in
  Buffer.blit w header_size b header_size len;
  put_header b len;
  Bytes.unsafe_to_string b

let payload_length h =
  if String.length h < header_size then fail (Corrupt "frame header truncated")
  else if
    not (h.[0] = magic.[0] && h.[1] = magic.[1] && h.[2] = magic.[2] && h.[3] = magic.[3])
  then fail (Corrupt "bad frame magic")
  else
    let len = get_u32 h 5 in
    if len > max_payload then
      fail (Corrupt (Printf.sprintf "implausible frame length %d" len))
    else Ok len

let check s ~len:n =
  match payload_length s with
  | Error _ as e -> e
  | Ok len ->
    if n <> header_size + len || n > String.length s then
      fail (Corrupt "frame length does not match header")
    else if
      get_u32 s 9
      <> Int32.to_int
           (Crc32.digest_sub (Bytes.unsafe_of_string s) ~pos:header_size ~len)
         land 0xffffffff
    then fail (Corrupt "frame payload CRC mismatch")
    else Ok len

let decode frame =
  match check frame ~len:(String.length frame) with
  | Error _ as e -> e
  | Ok len -> Ok (String.sub frame header_size len)
