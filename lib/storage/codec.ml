open Seed_util
open Seed_error

module Writer = struct
  type t = Buffer.t

  let create ?(initial_size = 256) () = Buffer.create initial_size
  let contents = Buffer.contents
  let length = Buffer.length

  let u8 b n =
    if n < 0 || n > 255 then invalid_arg "Codec.Writer.u8";
    Buffer.add_char b (Char.chr n)

  let uvarint b n =
    (* n must be non-negative; emitted 7 bits at a time. *)
    let rec go n =
      if n land lnot 0x7f = 0 then Buffer.add_char b (Char.chr n)
      else begin
        Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
        go (n lsr 7)
      end
    in
    go n

  let varint b n =
    (* zig-zag so negative ints stay short *)
    uvarint b ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

  let i64 b n = Buffer.add_int64_le b n
  let float b f = i64 b (Int64.bits_of_float f)
  let bool b v = u8 b (if v then 1 else 0)

  let string b s =
    uvarint b (String.length s);
    Buffer.add_string b s

  let option b f = function
    | None -> u8 b 0
    | Some v ->
      u8 b 1;
      f b v

  let list b f xs =
    uvarint b (List.length xs);
    List.iter (f b) xs
end

module Reader = struct
  type t = { src : string; mutable pos : int }

  let of_string src = { src; pos = 0 }
  let remaining r = String.length r.src - r.pos
  let at_end r = remaining r = 0

  let corrupt what = fail (Corrupt ("codec: truncated " ^ what))

  let u8 r =
    if remaining r < 1 then corrupt "u8"
    else begin
      let c = Char.code r.src.[r.pos] in
      r.pos <- r.pos + 1;
      Ok c
    end

  let uvarint r =
    let rec go shift acc =
      let* c = u8 r in
      let acc = acc lor ((c land 0x7f) lsl shift) in
      if c land 0x80 = 0 then Ok acc
      else if shift > Sys.int_size - 8 then fail (Corrupt "codec: varint overflow")
      else go (shift + 7) acc
    in
    go 0 0

  let varint r =
    let* z = uvarint r in
    Ok ((z lsr 1) lxor (-(z land 1)))

  let i64 r =
    if remaining r < 8 then corrupt "i64"
    else begin
      let v = String.get_int64_le r.src r.pos in
      r.pos <- r.pos + 8;
      Ok v
    end

  let float r =
    let* bits = i64 r in
    Ok (Int64.float_of_bits bits)

  let bool r =
    let* c = u8 r in
    match c with
    | 0 -> Ok false
    | 1 -> Ok true
    | _ -> fail (Corrupt "codec: bad bool tag")

  let string r =
    let* len = uvarint r in
    if len < 0 || remaining r < len then corrupt "string"
    else begin
      let s = String.sub r.src r.pos len in
      r.pos <- r.pos + len;
      Ok s
    end

  let option r f =
    let* tag = u8 r in
    match tag with
    | 0 -> Ok None
    | 1 ->
      let* v = f r in
      Ok (Some v)
    | _ -> fail (Corrupt "codec: bad option tag")

  let list r f =
    let* n = uvarint r in
    if n < 0 || n > remaining r then corrupt "list length"
    else
      let rec go acc i =
        if i = 0 then Ok (List.rev acc)
        else
          let* v = f r in
          go (v :: acc) (i - 1)
      in
      go [] n

  let expect_end r =
    if at_end r then Ok ()
    else fail (Corrupt (Printf.sprintf "codec: %d trailing bytes" (remaining r)))
end
