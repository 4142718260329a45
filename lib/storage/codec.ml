open Seed_util

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

  let iter b f n each =
    uvarint b n;
    each (f b)

  let list b f xs =
    uvarint b (List.length xs);
    List.iter (f b) xs
end

module Reader = struct
  (* [names]: the distinct [name]s read so far in this run, made on the
     first one *)
  type t = {
    src : string;
    mutable pos : int;
    mutable names : (string, string) Hashtbl.t option;
  }

  (* raised by the primitives, caught only by [run] *)
  exception Malformed of string

  let fail msg = raise (Malformed msg)
  let remaining r = String.length r.src - r.pos

  let run src f =
    let r = { src; pos = 0; names = None } in
    match f r with
    | v when remaining r = 0 -> Ok v
    | _ ->
      Error
        (Seed_error.Corrupt (Printf.sprintf "codec: %d trailing bytes" (remaining r)))
    | exception Malformed msg -> Error (Seed_error.Corrupt msg)

  let u8 r =
    if remaining r < 1 then fail "codec: truncated u8";
    let c = Char.code (String.unsafe_get r.src r.pos) in
    r.pos <- r.pos + 1;
    c

  let uvarint r =
    let rec go shift acc =
      let c = u8 r in
      let acc = acc lor ((c land 0x7f) lsl shift) in
      if c land 0x80 = 0 then acc
      else if shift > Sys.int_size - 8 then fail "codec: varint overflow"
      else go (shift + 7) acc
    in
    go 0 0

  let varint r =
    let z = uvarint r in
    (z lsr 1) lxor -(z land 1)

  let i64 r =
    if remaining r < 8 then fail "codec: truncated i64";
    let v = String.get_int64_le r.src r.pos in
    r.pos <- r.pos + 8;
    v

  let float r = Int64.float_of_bits (i64 r)

  let bool r =
    match u8 r with 0 -> false | 1 -> true | _ -> fail "codec: bad bool tag"

  let string r =
    let len = uvarint r in
    if len < 0 || remaining r < len then fail "codec: truncated string";
    let s = String.sub r.src r.pos len in
    r.pos <- r.pos + len;
    s

  let name r =
    let s = string r in
    let names =
      match r.names with
      | Some names -> names
      | None ->
        let names = Hashtbl.create 64 in
        r.names <- Some names;
        names
    in
    match Hashtbl.find_opt names s with
    | Some shared -> shared
    | None ->
      Hashtbl.add names s s;
      s

  let option r f =
    match u8 r with 0 -> None | 1 -> Some (f r) | _ -> fail "codec: bad option tag"

  (* a list's length prefix: every element takes at least one byte, so a
     count past the remaining input is corrupt, not a huge allocation *)
  let count r =
    let n = uvarint r in
    if n < 0 || n > remaining r then fail "codec: truncated list length";
    n

  let iter r f =
    for _ = 1 to count r do
      f r
    done

  let list r f =
    let rec go acc i = if i = 0 then List.rev acc else go (f r :: acc) (i - 1) in
    go [] (count r)
end
