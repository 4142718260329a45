open Seed_util.Seed_error
module Crc32 = Seed_storage.Crc32

let magic = "SENF"
let version = 3
let header_size = 13
let max_payload = 16 * 1024 * 1024

let put_u32 b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff))

let get_u32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let encode payload =
  let len = String.length payload in
  if len > max_payload then invalid_arg "Frame.encode: payload too large";
  let b = Buffer.create (header_size + len) in
  Buffer.add_string b magic;
  Buffer.add_char b (Char.chr version);
  put_u32 b len;
  put_u32 b (Int32.to_int (Crc32.digest payload) land 0xffffffff);
  Buffer.add_string b payload;
  Buffer.contents b

let parse_header h =
  if String.length h < header_size then
    fail (Corrupt "frame header truncated")
  else if not (String.equal (String.sub h 0 4) magic) then
    fail (Corrupt "bad frame magic")
  else
    let v = Char.code h.[4] in
    let len = get_u32 h 5 in
    let crc = Int32.of_int (get_u32 h 9) in
    if len < 0 || len > max_payload then
      fail (Corrupt (Printf.sprintf "implausible frame length %d" len))
    else Ok (v, len, crc)

let check_payload ~crc payload =
  if Int32.equal (Crc32.digest payload) crc then Ok ()
  else fail (Corrupt "frame payload CRC mismatch")

let decode frame =
  let* _v, len, crc = parse_header frame in
  if String.length frame <> header_size + len then
    fail (Corrupt "frame length does not match header")
  else
    let payload = String.sub frame header_size len in
    let* () = check_payload ~crc payload in
    Ok payload
