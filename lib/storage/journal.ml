open Seed_util
open Seed_error

type sync_policy = [ `Always_fsync | `Flush_only ]

type t = {
  jpath : string;
  jepoch : int;
  sync_policy : sync_policy;
  mutable file : Io.file option;
}

(* "SEE4": version 4 of the frame format. One frame holds one whole
   transaction — its records as a {!Codec} string list — and the frame
   CRC covers the epoch and length header fields as well as the
   payload, so a bit flipped anywhere in the frame except the magic is
   caught as damage rather than silently changing the frame's epoch,
   extent or records. *)
let magic = 0x53454534l

(* Frame magics of earlier releases: "SEE3" one-record frames and
   "SEEC" begin/commit markers around multi-record groups. *)
let legacy_magics = [ 0x53454533l; 0x53454543l ]

let header_bytes = 16

let wrap_io = Seed_error.wrap_io

let open_ ?(io = Io.real) ?(sync = `Flush_only) ?(epoch = 0) path =
  wrap_io (fun () ->
      let file = io.Io.open_append path in
      { jpath = path; jepoch = epoch; sync_policy = sync; file = Some file })

let file_of j =
  match j.file with
  | Some f -> Ok f
  | None -> fail (Io_error ("journal closed: " ^ j.jpath))

(* The frame CRC covers epoch, length, and payload — everything after
   the magic — so header corruption is detected like payload
   corruption. *)
let frame_crc ~epoch payload =
  let h = Bytes.create 8 in
  Bytes.set_int32_le h 0 (Int32.of_int epoch);
  Bytes.set_int32_le h 4 (Int32.of_int (String.length payload));
  Crc32.digest ~init:(Crc32.digest_sub h ~pos:0 ~len:8) payload

let add_frame b epoch records =
  let w = Codec.Writer.create () in
  Codec.Writer.list w Codec.Writer.string records;
  let payload = Codec.Writer.contents w in
  Buffer.add_int32_le b magic;
  Buffer.add_int32_le b (Int32.of_int epoch);
  Buffer.add_int32_le b (Int32.of_int (String.length payload));
  Buffer.add_int32_le b (frame_crc ~epoch payload);
  Buffer.add_string b payload

let decode_records payload =
  Result.to_option
    (Codec.Reader.run payload (fun r -> Codec.Reader.list r Codec.Reader.string))

(* ------------------------------------------------------------------ *)
(* Appending                                                            *)
(* ------------------------------------------------------------------ *)

let append j txns =
  match txns with
  | [] -> Ok ()
  | _ ->
    let* f = file_of j in
    wrap_io (fun () ->
        let b = Buffer.create 512 in
        List.iter (add_frame b j.jepoch) txns;
        (* the whole batch goes down in one write (and, under
           [`Always_fsync], one fsync); each transaction is its own
           frame, so a crash leaves each one whole or damaged *)
        f.Io.write (Buffer.contents b);
        if j.sync_policy = `Always_fsync then f.Io.fsync ())

let sync j =
  let* f = file_of j in
  wrap_io (fun () -> f.Io.fsync ())

let close j =
  match j.file with
  | None -> ()
  | Some f ->
    j.file <- None;
    (try f.Io.close () with _ -> ())

(* ------------------------------------------------------------------ *)
(* Recovery-side reads                                                  *)
(* ------------------------------------------------------------------ *)

type frame = {
  f_epoch : int;
  f_offset : int;
  f_bytes : int;
  f_records : string list;
}

type damage = { d_offset : int; d_end : int; d_reason : string }

type scan_result = {
  frames : frame list;
  scan_damage : damage list;
  file_size : int;
}

(* A journal written by an earlier release starts with one of its frame
   magics. Its frames would all read as damage here, so it is refused
   rather than quarantined. *)
let refuse_legacy path buf =
  if String.length buf >= 4 && List.mem (String.get_int32_le buf 0) legacy_magics
  then
    fail
      (Invalid_operation
         (Printf.sprintf
            "%s: journal frames of an earlier release are not supported; \
             compact the store with that release (which empties the \
             journal) before opening it here"
            path))
  else Ok ()

let scan ?(io = Io.real) path =
  if not (io.Io.exists path) then
    Ok { frames = []; scan_damage = []; file_size = 0 }
  else
    let* buf = wrap_io (fun () -> io.Io.read_file path) in
    let* () = refuse_legacy path buf in
    let size = String.length buf in
    (* parse the frame whose header starts at [pos] *)
    let frame_at pos =
      if size - pos < header_bytes then `Bad "truncated frame header"
      else if String.get_int32_le buf pos <> magic then `Bad "bad magic"
      else
        let ep = Int32.to_int (String.get_int32_le buf (pos + 4)) in
        let len = Int32.to_int (String.get_int32_le buf (pos + 8)) in
        let crc = String.get_int32_le buf (pos + 12) in
        if ep < 0 then `Bad "negative epoch"
        else if len < 0 then `Bad "negative length"
        else if size - pos - header_bytes < len then `Bad "truncated payload"
        else
          let payload = String.sub buf (pos + header_bytes) len in
          if frame_crc ~epoch:ep payload <> crc then `Bad "crc mismatch"
          else
            match decode_records payload with
            | None -> `Bad "bad transaction payload"
            | Some records ->
              `Frame
                {
                  f_epoch = ep;
                  f_offset = pos;
                  f_bytes = header_bytes + len;
                  f_records = records;
                }
    in
    (* after damage, hunt byte-by-byte for the next offset where a whole
       frame — magic, sane lengths, matching CRC — parses; the CRC makes
       a false resync on payload bytes vanishingly unlikely *)
    let rec resync pos =
      if size - pos < header_bytes then None
      else
        match frame_at pos with
        | `Frame _ -> Some pos
        | `Bad _ -> resync (pos + 1)
    in
    let frames = ref [] and damages = ref [] in
    let rec loop pos =
      if pos < size then
        match frame_at pos with
        | `Frame f ->
          frames := f :: !frames;
          loop (pos + f.f_bytes)
        | `Bad d_reason -> (
          match resync (pos + 1) with
          | Some next ->
            damages := { d_offset = pos; d_end = next; d_reason } :: !damages;
            loop next
          | None ->
            damages := { d_offset = pos; d_end = size; d_reason } :: !damages)
    in
    loop 0;
    Ok
      {
        frames = List.rev !frames;
        scan_damage = List.rev !damages;
        file_size = size;
      }

let tail_damage s =
  match List.rev s.scan_damage with
  | d :: _ when d.d_end = s.file_size -> Some d
  | _ -> None

let quarantined s =
  match tail_damage s with
  | None -> s.scan_damage
  | Some t -> List.filter (fun d -> d.d_offset <> t.d_offset) s.scan_damage

let records frames = List.concat_map (fun f -> f.f_records) frames

let read_all path =
  (* Damage only loses the transactions it touches; recovery keeps every
     intact frame, mirroring WAL semantics. *)
  let* s = scan path in
  Ok (records s.frames)

let read_all_strict path =
  let* s = scan path in
  match s.scan_damage with
  | [] -> Ok (records s.frames)
  | d :: _ ->
    fail
      (Corrupt
         (Printf.sprintf "journal %s: %s at offset %d" path d.d_reason
            d.d_offset))

let truncate ?(io = Io.real) ?(len = 0) path =
  wrap_io (fun () ->
      if io.Io.exists path then io.Io.truncate path len
      else if len <> 0 then
        raise (Sys_error (path ^ ": cannot truncate a missing journal"));
      (* sync the cut itself, then the directory entry: some filesystems
         would otherwise resurrect pre-truncation bytes after a crash *)
      let f = io.Io.open_append path in
      Fun.protect
        ~finally:(fun () -> f.Io.close ())
        (fun () -> f.Io.fsync ());
      io.Io.fsync_dir (Filename.dirname path))
