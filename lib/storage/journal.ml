open Seed_util
open Seed_error

type sync_policy = [ `Always_fsync | `Flush_only | `None ]

type t = {
  jpath : string;
  jepoch : int;
  sync_policy : sync_policy;
  pending : Buffer.t;  (* frames not yet handed to the OS (`None policy) *)
  mutable file : Io.file option;
  mutable next_txn : int;
}

(* "SEE3": version 3 of the frame format (epoch-tagged, with the frame
   CRC covering the epoch and length header fields as well as the
   payload, so a bit flipped anywhere in the frame except the magic is
   caught as damage rather than silently changing the frame's epoch or
   extent). *)
let magic = 0x53454533l

(* "SEEC": control frames — transaction begin/commit markers. Same
   envelope as data frames, so the CRC/torn-tail machinery covers them
   for free; a distinct magic keeps old readers from mistaking a marker
   for a record. *)
let control_magic = 0x53454543l

let header_bytes = 16

let wrap_io = Seed_error.wrap_io

let open_ ?(io = Io.real) ?(sync = `Flush_only) ?(epoch = 0) path =
  wrap_io (fun () ->
      let file = io.Io.open_append path in
      {
        jpath = path;
        jepoch = epoch;
        sync_policy = sync;
        pending = Buffer.create 256;
        file = Some file;
        next_txn = 1;
      })

let file_of j =
  match j.file with
  | Some f -> Ok f
  | None -> fail (Io_error ("journal closed: " ^ j.jpath))

(* The frame CRC covers epoch, length, and payload — everything after
   the magic — so header corruption is detected like payload
   corruption. *)
let frame_crc ~epoch payload =
  let b = Buffer.create (8 + String.length payload) in
  Buffer.add_int32_le b (Int32.of_int epoch);
  Buffer.add_int32_le b (Int32.of_int (String.length payload));
  Buffer.add_string b payload;
  Crc32.digest (Buffer.contents b)

let frame_with ~magic:m epoch payload =
  let b = Buffer.create (String.length payload + header_bytes) in
  Buffer.add_int32_le b m;
  Buffer.add_int32_le b (Int32.of_int epoch);
  Buffer.add_int32_le b (Int32.of_int (String.length payload));
  Buffer.add_int32_le b (frame_crc ~epoch payload);
  Buffer.add_string b payload;
  Buffer.contents b

let frame epoch payload = frame_with ~magic epoch payload

(* Control payloads: [kind u8 | txn u32] for begin and
   [kind u8 | txn u32 | count u32 | group crc u32] for commit. The
   commit CRC covers the record payloads, so a marker vouches for the
   exact records it closes, not just their count. *)
let begin_payload txn =
  let b = Buffer.create 5 in
  Buffer.add_uint8 b 0;
  Buffer.add_int32_le b (Int32.of_int txn);
  Buffer.contents b

let commit_payload ~txn ~count ~group_crc =
  let b = Buffer.create 13 in
  Buffer.add_uint8 b 1;
  Buffer.add_int32_le b (Int32.of_int txn);
  Buffer.add_int32_le b (Int32.of_int count);
  Buffer.add_int32_le b group_crc;
  Buffer.contents b

(* Chained digests give the same value as digesting the concatenation,
   without materializing the concatenated copy on the commit path. *)
let group_crc payloads =
  List.fold_left (fun acc p -> Crc32.digest ~init:acc p) 0l payloads

let write_pending j (f : Io.file) =
  if Buffer.length j.pending > 0 then begin
    f.Io.write (Buffer.contents j.pending);
    Buffer.clear j.pending
  end

(* ------------------------------------------------------------------ *)
(* Appending                                                            *)
(* ------------------------------------------------------------------ *)

type entry = Bare of string | Group of string list

(* Group markers carry a per-journal counter: it only has to pair each
   Begin with its Commit, so it restarts with every open. *)
let fresh_seq j =
  let txn = j.next_txn in
  j.next_txn <- txn + 1;
  txn

let encode_entry j b = function
  | Bare p -> Buffer.add_string b (frame j.jepoch p)
  | Group payloads ->
    let seq = fresh_seq j in
    Buffer.add_string b
      (frame_with ~magic:control_magic j.jepoch (begin_payload seq));
    List.iter (fun p -> Buffer.add_string b (frame j.jepoch p)) payloads;
    Buffer.add_string b
      (frame_with ~magic:control_magic j.jepoch
         (commit_payload ~txn:seq ~count:(List.length payloads)
            ~group_crc:(group_crc payloads)))

let write_bytes j f bytes =
  match j.sync_policy with
  | `None -> Buffer.add_string j.pending bytes
  | `Flush_only ->
    write_pending j f;
    f.Io.write bytes
  | `Always_fsync ->
    write_pending j f;
    f.Io.write bytes;
    f.Io.fsync ()

let append_entries j entries =
  match entries with
  | [] -> Ok ()
  | _ ->
    let* f = file_of j in
    wrap_io (fun () ->
        let b = Buffer.create 512 in
        List.iter (encode_entry j b) entries;
        (* all the entries go down in one write (and, under
           [`Always_fsync], one fsync): a crash leaves each transaction
           either whole or marker-less — never a committed prefix *)
        write_bytes j f (Buffer.contents b))

let append j payload =
  let* f = file_of j in
  wrap_io (fun () -> write_bytes j f (frame j.jepoch payload))

let append_group j payloads =
  match payloads with
  | [] -> Ok ()
  | [ p ] ->
    (* a single-record transaction needs no markers: a bare frame is
       already individually committed (all-or-nothing is trivial for one
       record), so the group framing would be pure overhead *)
    append_entries j [ Bare p ]
  | _ -> append_entries j [ Group payloads ]

let sync j =
  let* f = file_of j in
  wrap_io (fun () ->
      write_pending j f;
      f.Io.fsync ())

let close j =
  match j.file with
  | None -> ()
  | Some f ->
    j.file <- None;
    (* best-effort: a failed (or crashed) flush simply loses the
       unsynced records, which is what the `None policy promises *)
    (try write_pending j f with _ -> Buffer.clear j.pending);
    (try f.Io.close () with _ -> ())

let path j = j.jpath
let epoch j = j.jepoch
let sync_policy j = j.sync_policy

(* ------------------------------------------------------------------ *)
(* Recovery-side reads                                                  *)
(* ------------------------------------------------------------------ *)

type kind =
  | Data
  | Begin of { txn : int }
  | Commit of { txn : int; count : int; crc : int32 }

type frame = {
  f_epoch : int;
  f_payload : string;
  f_offset : int;
  f_kind : kind;
}

type damage = { d_offset : int; d_end : int; d_reason : string }

let decode_control payload =
  let len = String.length payload in
  if len = 5 && String.get_uint8 payload 0 = 0 then
    Some (Begin { txn = Int32.to_int (String.get_int32_le payload 1) })
  else if len = 13 && String.get_uint8 payload 0 = 1 then
    Some
      (Commit
         {
           txn = Int32.to_int (String.get_int32_le payload 1);
           count = Int32.to_int (String.get_int32_le payload 5);
           crc = String.get_int32_le payload 9;
         })
  else None

type scan_result = {
  frames : frame list;
  scan_damage : damage list;
  file_size : int;
}

let scan ?(io = Io.real) path =
  if not (io.Io.exists path) then
    Ok { frames = []; scan_damage = []; file_size = 0 }
  else
    wrap_io (fun () ->
        let buf = io.Io.read_file path in
        let size = String.length buf in
        (* parse the frame whose header starts at [pos] *)
        let frame_at pos =
          if size - pos < header_bytes then `Bad "truncated frame header"
          else
            let m = String.get_int32_le buf pos in
            if m <> magic && m <> control_magic then `Bad "bad magic"
            else
              let ep = Int32.to_int (String.get_int32_le buf (pos + 4)) in
              let len = Int32.to_int (String.get_int32_le buf (pos + 8)) in
              let crc = String.get_int32_le buf (pos + 12) in
              if ep < 0 then `Bad "negative epoch"
              else if len < 0 then `Bad "negative length"
              else if size - pos - header_bytes < len then
                `Bad "truncated payload"
              else
                let payload = String.sub buf (pos + header_bytes) len in
                if frame_crc ~epoch:ep payload <> crc then `Bad "crc mismatch"
                else if m = magic then
                  `Frame
                    ( { f_epoch = ep; f_payload = payload; f_offset = pos;
                        f_kind = Data },
                      pos + header_bytes + len )
                else
                  match decode_control payload with
                  | None -> `Bad "bad control record"
                  | Some k ->
                    `Frame
                      ( { f_epoch = ep; f_payload = payload; f_offset = pos;
                          f_kind = k },
                        pos + header_bytes + len )
        in
        (* after damage, hunt byte-by-byte for the next offset where a
           whole frame — magic, sane lengths, matching CRC — parses; the
           CRC makes a false resync on payload bytes vanishingly unlikely *)
        let rec resync pos =
          if size - pos < header_bytes then None
          else
            let m = String.get_int32_le buf pos in
            if
              (m = magic || m = control_magic)
              && match frame_at pos with `Frame _ -> true | `Bad _ -> false
            then Some pos
            else resync (pos + 1)
        in
        let records = ref [] and damages = ref [] in
        let rec loop pos =
          if pos < size then
            match frame_at pos with
            | `Frame (f, next) ->
              records := f :: !records;
              loop next
            | `Bad d_reason -> (
              match resync (pos + 1) with
              | Some next ->
                damages := { d_offset = pos; d_end = next; d_reason } :: !damages;
                loop next
              | None ->
                damages := { d_offset = pos; d_end = size; d_reason } :: !damages)
        in
        loop 0;
        {
          frames = List.rev !records;
          scan_damage = List.rev !damages;
          file_size = size;
        })

let tail_damage s =
  match List.rev s.scan_damage with
  | d :: _ when d.d_end = s.file_size -> Some d
  | _ -> None

let quarantined s =
  match tail_damage s with
  | None -> s.scan_damage
  | Some t -> List.filter (fun d -> d.d_offset <> t.d_offset) s.scan_damage

(* ------------------------------------------------------------------ *)
(* Transaction-group resolution                                         *)
(* ------------------------------------------------------------------ *)

type groups = {
  g_units : frame list list;
  g_committed : frame list;
  g_dropped_records : int;
  g_tail_records : int;
  g_tail_begin : int option;
}

let resolve_groups ?(damage = []) frames =
  (* Walks the intact frames in append order. A bare data frame (old
     journals, single-record appends) is committed on its own. A
     [Begin] opens a group; the group's records count only when a
     matching [Commit] (same txn, right count, right group CRC) closes
     it — anything else drops the whole group, never a prefix of it.

     A quarantined [damage] region falling inside an open group is a
     barrier: the group cannot be trusted across it. The records before
     the barrier are dropped; the records after it are in limbo until
     the next marker decides them — a [Commit] means the group ran past
     the damage (a record was destroyed, so the whole group drops), a
     [Begin] or the end of the file means the damage most
     plausibly ate the commit marker, so the limbo records are
     independent appends that must survive. *)
  let units = ref [] and dropped = ref 0 in
  let tail_records = ref 0 and tail_begin = ref None in
  let commit_unit fs = units := fs :: !units in
  let commit_bare fs = List.iter (fun f -> commit_unit [ f ]) fs in
  let barrier ~last_off f =
    List.exists (fun d -> d.d_offset > last_off && d.d_end <= f.f_offset) damage
  in
  let rec walk frames =
    match frames with
    | [] -> ()
    | f :: rest -> (
      match f.f_kind with
      | Data ->
        commit_unit [ f ];
        walk rest
      | Commit _ ->
        (* a stray commit with no open group: ignore the marker *)
        walk rest
      | Begin { txn } ->
        in_group ~txn ~begin_off:f.f_offset ~last_off:f.f_offset [] rest)
  and in_group ~txn ~begin_off ~last_off acc frames =
    match frames with
    | [] ->
      (* journal ends inside the group: uncommitted tail, truncatable *)
      dropped := !dropped + List.length acc;
      tail_records := List.length acc;
      tail_begin := Some begin_off
    | f :: rest ->
      if barrier ~last_off f then begin
        dropped := !dropped + List.length acc;
        limbo [] (f :: rest)
      end
      else (
        match f.f_kind with
        | Data -> in_group ~txn ~begin_off ~last_off:f.f_offset (f :: acc) rest
        | Begin { txn = txn' } ->
          (* nested begin: the open group never committed *)
          dropped := !dropped + List.length acc;
          in_group ~txn:txn' ~begin_off:f.f_offset ~last_off:f.f_offset [] rest
        | Commit { txn = ctxn; count; crc } ->
          let recs = List.rev acc in
          let ok =
            ctxn = txn
            && count = List.length recs
            && crc = group_crc (List.map (fun r -> r.f_payload) recs)
          in
          if ok then commit_unit recs
          else dropped := !dropped + List.length recs;
          walk rest)
  and limbo acc frames =
    match frames with
    | [] -> commit_bare (List.rev acc)
    | f :: rest -> (
      match f.f_kind with
      | Data -> limbo (f :: acc) rest
      | Begin { txn } ->
        commit_bare (List.rev acc);
        in_group ~txn ~begin_off:f.f_offset ~last_off:f.f_offset [] rest
      | Commit _ ->
        (* the open group ran past the damage: a record is missing *)
        dropped := !dropped + List.length acc;
        walk rest)
  in
  walk frames;
  let units = List.rev !units in
  {
    g_units = units;
    g_committed = List.concat units;
    g_dropped_records = !dropped;
    g_tail_records = !tail_records;
    g_tail_begin = !tail_begin;
  }

let read_all path =
  (* A damaged tail only loses the records after the damage; recovery
     keeps the intact prefix, mirroring WAL semantics. Records of a
     group whose commit marker never made it are invisible. *)
  let* s = scan path in
  Ok
    (List.map
       (fun f -> f.f_payload)
       (resolve_groups ~damage:s.scan_damage s.frames).g_committed)

let read_all_strict path =
  let* s = scan path in
  match s.scan_damage with
  | [] ->
    Ok (List.map (fun f -> f.f_payload) (resolve_groups s.frames).g_committed)
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
