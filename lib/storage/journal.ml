open Seed_util
open Seed_error

type sync_policy = [ `Always_fsync | `Flush_only ]

type t = {
  jpath : string;
  jepoch : int;
  sync_policy : sync_policy;
  io : Io.t;
  mutable file : Io.file option;
  mutable size : int;  (* the end of the last frame that landed *)
  mutable broken : bool;  (* a failed append could not be cut back *)
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
      {
        jpath = path;
        jepoch = epoch;
        sync_policy = sync;
        io;
        file = Some file;
        size = file.Io.size ();
        broken = false;
      })

let file_of j =
  match j.file with
  | Some f -> Ok f
  | None -> fail (Io_error ("journal closed: " ^ j.jpath))

(* The frame CRC covers epoch, length, and payload — everything after
   the magic — so header corruption is detected like payload
   corruption. [b] holds a frame of payload length [len] at [pos]. *)
let frame_crc b ~pos ~len =
  Crc32.digest_sub
    ~init:(Crc32.digest_sub b ~pos:(pos + 4) ~len:8)
    b ~pos:(pos + header_bytes) ~len

(* Writes the header of the frame [b] holds, in place. *)
let put_header b ~epoch =
  let len = Bytes.length b - header_bytes in
  Bytes.set_int32_le b 0 magic;
  Bytes.set_int32_le b 4 (Int32.of_int epoch);
  Bytes.set_int32_le b 8 (Int32.of_int len);
  Bytes.set_int32_le b 12 (frame_crc b ~pos:0 ~len)

let decode_records payload =
  Result.to_option
    (Codec.Reader.run payload (fun r -> Codec.Reader.list r Codec.Reader.string))

(* ------------------------------------------------------------------ *)
(* Building frames                                                      *)
(* ------------------------------------------------------------------ *)

(* [frame] holds the frame being built, its header still blank; each
   record is encoded into [record], then added to [frame] behind its
   length. Both buffers are reused from frame to frame. *)
type writer = {
  frame : Buffer.t;
  record : Buffer.t;
  mutable expected : int;
  mutable added : int;
}

let writer () =
  { frame = Buffer.create 512; record = Buffer.create 256; expected = 0; added = 0 }

let blank_header = String.make header_bytes '\000'

let start w ~records =
  Buffer.clear w.frame;
  Buffer.add_string w.frame blank_header;
  Codec.Writer.count w.frame records;
  w.expected <- records;
  w.added <- 0

let add w encode x =
  Buffer.clear w.record;
  encode w.record x;
  Codec.Writer.buffer w.frame w.record;
  w.added <- w.added + 1

let seal w ~epoch =
  if w.added <> w.expected then invalid_arg "Journal.seal: record count";
  let b = Bytes.create (Buffer.length w.frame) in
  Buffer.blit w.frame 0 b 0 (Bytes.length b);
  put_header b ~epoch;
  Bytes.unsafe_to_string b

let frame ~epoch records =
  let w = writer () in
  start w ~records:(List.length records);
  List.iter (add w Buffer.add_string) records;
  seal w ~epoch

(* ------------------------------------------------------------------ *)
(* Appending                                                            *)
(* ------------------------------------------------------------------ *)

(* A frame sealed under another epoch (a compaction ran between its
   seal and its write) is restamped with the journal's. *)
let restamp j frame =
  if Int32.to_int (String.get_int32_le frame 4) = j.jepoch then frame
  else
    let b = Bytes.of_string frame in
    put_header b ~epoch:j.jepoch;
    Bytes.unsafe_to_string b

(* After a failed write or fsync the journal is cut back to the end of
   the last frame that landed, so nothing of the failed batch can be
   replayed. A cut that fails too leaves bytes of unknown fate behind
   the last good frame: the journal then refuses every append until a
   reopen settles it. *)
let cut_back j f =
  match
    wrap_io (fun () ->
        j.io.Io.truncate j.jpath j.size;
        if j.sync_policy = `Always_fsync then f.Io.fsync ())
  with
  | Ok () -> ()
  | Error _ -> j.broken <- true

let append j frames =
  match frames with
  | [] -> Ok ()
  | _ ->
    let* f = file_of j in
    if j.broken then
      fail
        (Io_error
           (j.jpath
          ^ ": an append failed and could not be cut back; reopen the store"))
    else
      (* the whole batch goes down in one write (and, under
         [`Always_fsync], one fsync); each transaction is its own
         frame, so a crash leaves each one whole or damaged *)
      let data =
        match frames with
        | [ one ] -> restamp j one
        | _ -> String.concat "" (List.map (restamp j) frames)
      in
      match
        wrap_io (fun () ->
            f.Io.write data;
            if j.sync_policy = `Always_fsync then f.Io.fsync ())
      with
      | Ok () ->
        j.size <- j.size + String.length data;
        Ok ()
      | Error _ as e ->
        cut_back j f;
        e

(* A frame's record count: the payload's list-length prefix. *)
let frame_records frame =
  let rec go pos shift n =
    let c = Char.code frame.[pos] in
    let n = n lor ((c land 0x7f) lsl shift) in
    if c land 0x80 = 0 then n else go (pos + 1) (shift + 7) n
  in
  go header_bytes 0 0

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
          if frame_crc (Bytes.unsafe_of_string buf) ~pos ~len <> crc then
            `Bad "crc mismatch"
          else
            match
              Codec.Reader.run_sub buf ~pos:(pos + header_bytes) ~len (fun r ->
                  Codec.Reader.list r Codec.Reader.string)
            with
            | Error _ -> `Bad "bad transaction payload"
            | Ok records ->
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
