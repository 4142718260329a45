open Seed_storage
open Helpers

(* each transaction's records as one frame; the journal stamps its own
   epoch on frames sealed under another *)
let append_txns j txns = Journal.append j (List.map (Journal.frame ~epoch:0) txns)

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "seed_test_%d_%d" (Unix.getpid ()) !counter)
    in
    if Sys.file_exists dir then () else Unix.mkdir dir 0o755;
    dir

(* ------------------------------------------------------------------ *)
(* CRC-32                                                               *)
(* ------------------------------------------------------------------ *)

let test_crc_known_vectors () =
  (* standard IEEE CRC-32 check value *)
  Alcotest.(check int32) "123456789" 0xCBF43926l (Crc32.digest "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32.digest "");
  Alcotest.(check int32) "a" 0xE8B7BE43l (Crc32.digest "a")

let test_crc_sub () =
  let b = Bytes.of_string "xx123456789yy" in
  Alcotest.(check int32) "slice" 0xCBF43926l (Crc32.digest_sub b ~pos:2 ~len:9);
  Alcotest.check_raises "oob" (Invalid_argument "Crc32.digest_sub") (fun () ->
      ignore (Crc32.digest_sub b ~pos:10 ~len:10))

let prop_crc_detects_flip =
  qcheck_case "crc differs after byte flip"
    QCheck2.Gen.(string_size (int_range 1 64))
    (fun s ->
      let b = Bytes.of_string s in
      let i = String.length s / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
      Crc32.digest s <> Crc32.digest (Bytes.to_string b))

(* ------------------------------------------------------------------ *)
(* Codec                                                                *)
(* ------------------------------------------------------------------ *)

let test_codec_primitives () =
  let w = Codec.Writer.create () in
  Codec.Writer.u8 w 255;
  Codec.Writer.varint w (-123456);
  Codec.Writer.varint w max_int;
  Codec.Writer.varint w min_int;
  Codec.Writer.i64 w 0x0123456789ABCDEFL;
  Codec.Writer.float w 3.14159;
  Codec.Writer.bool w true;
  Codec.Writer.string w "hello";
  Codec.Writer.option w Codec.Writer.string None;
  Codec.Writer.option w Codec.Writer.string (Some "x");
  Codec.Writer.list w Codec.Writer.varint [ 1; 2; 3 ];
  let module R = Codec.Reader in
  ok
    (R.run (Codec.Writer.contents w) (fun r ->
         Alcotest.(check int) "u8" 255 (R.u8 r);
         Alcotest.(check int) "varint neg" (-123456) (R.varint r);
         Alcotest.(check int) "varint max" max_int (R.varint r);
         Alcotest.(check int) "varint min" min_int (R.varint r);
         Alcotest.(check int64) "i64" 0x0123456789ABCDEFL (R.i64 r);
         Alcotest.(check (float 0.0)) "float" 3.14159 (R.float r);
         Alcotest.(check bool) "bool" true (R.bool r);
         Alcotest.(check string) "string" "hello" (R.string r);
         Alcotest.(check (option string)) "none" None (R.option r R.string);
         Alcotest.(check (option string)) "some" (Some "x") (R.option r R.string);
         Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (R.list r R.varint)))

let is_corrupt = function Seed_util.Seed_error.Corrupt _ -> true | _ -> false

let test_codec_truncation () =
  let w = Codec.Writer.create () in
  Codec.Writer.string w "hello world";
  let payload = Codec.Writer.contents w in
  let truncated = String.sub payload 0 (String.length payload - 3) in
  check_err "truncated" is_corrupt (Codec.Reader.run truncated Codec.Reader.string)

(* [run] requires the decoder to consume its whole input *)
let test_codec_trailing () =
  check_err "trailing" is_corrupt (Codec.Reader.run "xx" (fun _ -> ()))

let test_codec_bad_tags () =
  let module R = Codec.Reader in
  check_err "bad option tag" is_corrupt (R.run "\x07" (fun r -> R.option r R.u8));
  check_err "bad bool" is_corrupt (R.run "\x07" R.bool)

let roundtrip write read x =
  let w = Codec.Writer.create () in
  write w x;
  ok (Codec.Reader.run (Codec.Writer.contents w) read)

let prop_codec_varint =
  qcheck_case "varint roundtrip" QCheck2.Gen.int (fun n ->
      roundtrip Codec.Writer.varint Codec.Reader.varint n = n)

let prop_codec_string =
  qcheck_case "string roundtrip" QCheck2.Gen.string (fun s ->
      String.equal (roundtrip Codec.Writer.string Codec.Reader.string s) s)

let prop_codec_float =
  qcheck_case "float roundtrip" QCheck2.Gen.float (fun f ->
      let g = roundtrip Codec.Writer.float Codec.Reader.float f in
      Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g))

(* ------------------------------------------------------------------ *)
(* Journal                                                              *)
(* ------------------------------------------------------------------ *)

(* Size of the frame holding one transaction of [records]: the 16-byte
   header plus the records encoded as a Codec string list. *)
let frame_bytes records =
  let w = Codec.Writer.create () in
  Codec.Writer.list w Codec.Writer.string records;
  16 + Buffer.length w

(* The records of the journal's intact frames, in order. *)
let journal_records path =
  List.concat_map (fun f -> f.Journal.f_records) (ok (Journal.scan path)).Journal.frames

(* Any malformed byte, a torn tail included, is reported as damage. *)
let check_damaged name path =
  Alcotest.(check bool) name true ((ok (Journal.scan path)).Journal.scan_damage <> [])

let test_journal_roundtrip () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "j.log" in
  let j = ok (Journal.open_ path) in
  check_ok "a" (append_txns j [ [ "alpha" ] ]);
  check_ok "b" (append_txns j [ [ "beta" ] ]);
  check_ok "sync" (Journal.sync j);
  Journal.close j;
  Alcotest.(check (list string)) "read" [ "alpha"; "beta" ] (journal_records path);
  (* appending after reopen preserves earlier records *)
  let j = ok (Journal.open_ path) in
  check_ok "c" (append_txns j [ [ "gamma" ] ]);
  Journal.close j;
  Alcotest.(check (list string)) "read 3" [ "alpha"; "beta"; "gamma" ]
    (journal_records path)

let test_journal_missing_file () =
  let dir = tmp_dir () in
  Alcotest.(check (list string)) "missing" []
    (journal_records (Filename.concat dir "absent.log"))

let test_journal_torn_tail () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "j.log" in
  let j = ok (Journal.open_ path) in
  check_ok "a" (append_txns j [ [ "alpha" ] ]);
  check_ok "b" (append_txns j [ [ "beta" ] ]);
  Journal.close j;
  (* cut the file mid-record *)
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (size - 3);
  Unix.close fd;
  Alcotest.(check (list string)) "intact prefix" [ "alpha" ] (journal_records path);
  check_damaged "damage reported" path

let test_journal_corrupt_payload () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "j.log" in
  let j = ok (Journal.open_ path) in
  check_ok "a" (append_txns j [ [ "alpha" ] ]);
  check_ok "b" (append_txns j [ [ "beta" ] ]);
  Journal.close j;
  (* flip a byte inside the second record's payload *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let first_record = frame_bytes [ "alpha" ] in
  ignore (Unix.lseek fd (first_record + 16 + 1) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "X") 0 1);
  Unix.close fd;
  Alcotest.(check (list string)) "crc cut" [ "alpha" ] (journal_records path)

let test_journal_truncate () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "j.log" in
  let j = ok (Journal.open_ path) in
  check_ok "a" (append_txns j [ [ "alpha" ] ]);
  Journal.close j;
  check_ok "truncate" (Journal.truncate path);
  Alcotest.(check (list string)) "empty" [] (journal_records path)

(* ------------------------------------------------------------------ *)
(* Transaction groups                                                   *)
(* ------------------------------------------------------------------ *)

let test_group_roundtrip () =
  (* one frame per transaction: a batch of transactions lands in one
     write, and scan hands each frame back with its records *)
  let dir = tmp_dir () in
  let path = Filename.concat dir "j.log" in
  let j = ok (Journal.open_ path) in
  check_ok "batch" (append_txns j [ [ "solo" ]; [ "g1"; "g2"; "g3" ] ]);
  check_ok "empty batch is a no-op" (append_txns j []);
  check_ok "tail" (append_txns j [ [ "tail" ] ]);
  Journal.close j;
  Alcotest.(check (list string)) "records, in order"
    [ "solo"; "g1"; "g2"; "g3"; "tail" ]
    (journal_records path);
  let s = ok (Journal.scan path) in
  Alcotest.(check (list (list string))) "one frame per transaction"
    [ [ "solo" ]; [ "g1"; "g2"; "g3" ]; [ "tail" ] ]
    (List.map (fun f -> f.Journal.f_records) s.Journal.frames);
  Alcotest.(check (list int)) "frame offsets"
    [ 0; frame_bytes [ "solo" ];
      frame_bytes [ "solo" ] + frame_bytes [ "g1"; "g2"; "g3" ] ]
    (List.map (fun f -> f.Journal.f_offset) s.Journal.frames);
  Alcotest.(check bool) "no damage" true (s.Journal.scan_damage = [])

(* Writes [before] and then the multi-record transaction [txn] as two
   appends, returning the journal size between them. *)
let journal_with path before txn =
  let j = ok (Journal.open_ path) in
  check_ok "before" (append_txns j [ before ]);
  let size = (Unix.stat path).Unix.st_size in
  check_ok "txn" (append_txns j [ txn ]);
  Journal.close j;
  size

let test_torn_txn_invisible () =
  (* the crash-mid-flush signature: the multi-record transaction's frame
     is cut at any byte — none of its records replays, and the cut is a
     torn tail starting at the frame *)
  let txn = [ "lost1"; "lost2"; "lost3" ] in
  for cut = 1 to frame_bytes txn - 1 do
    let name = Printf.sprintf "cut %d" cut in
    let path = Filename.concat (tmp_dir ()) "j.log" in
    let keep_end = journal_with path [ "keep" ] txn in
    Unix.truncate path (keep_end + cut);
    Alcotest.(check (list string)) (name ^ ": txn invisible") [ "keep" ]
      (journal_records path);
    check_damaged (name ^ ": damage reported") path;
    let s = ok (Journal.scan path) in
    Alcotest.(check (option int)) (name ^ ": torn tail at the frame")
      (Some keep_end)
      (Option.map (fun d -> d.Journal.d_offset) (Journal.tail_damage s))
  done

let test_append_after_torn_txn () =
  (* a writer that continued into a journal holding a torn transaction
     (crash, then append without healing): the torn frame becomes
     quarantined mid-file damage, never a prefix of records *)
  let path = Filename.concat (tmp_dir ()) "j.log" in
  let a_end = journal_with path [ "a0" ] [ "a1"; "a2" ] in
  Unix.truncate path (a_end + 9);
  let j = ok (Journal.open_ path) in
  check_ok "txn b" (append_txns j [ [ "b1"; "b2" ] ]);
  Journal.close j;
  Alcotest.(check (list string)) "only whole transactions"
    [ "a0"; "b1"; "b2" ] (journal_records path);
  let s = ok (Journal.scan path) in
  Alcotest.(check (option int)) "not a tail" None
    (Option.map (fun d -> d.Journal.d_offset) (Journal.tail_damage s));
  Alcotest.(check (list (pair int int))) "the torn bytes are quarantined"
    [ (a_end, a_end + 9) ]
    (List.map (fun d -> (d.Journal.d_offset, d.Journal.d_end))
       (Journal.quarantined s))

let test_store_group_recovery () =
  let dir = tmp_dir () in
  let store, _, _, _ = ok (Store.open_dir dir) in
  check_ok "base" (Store.append store [ "base" ]);
  check_ok "group" (Store.append store [ "t1"; "t2"; "t3" ]);
  check_ok "empty is a no-op" (Store.append store []);
  Alcotest.(check int) "journal_size counts records" 4
    (Store.journal_size store);
  Store.close store;
  Alcotest.(check int) "two frames"
    (frame_bytes [ "base" ] + frame_bytes [ "t1"; "t2"; "t3" ])
    (Unix.stat (Filename.concat dir "journal.log")).Unix.st_size;
  let store, _, records, report = ok (Store.open_dir dir) in
  Alcotest.(check (list string)) "all recovered" [ "base"; "t1"; "t2"; "t3" ]
    records;
  Alcotest.(check int) "replayed count" 4 report.Store.records_replayed;
  Alcotest.(check bool) "clean" true (Store.recovery_clean report);
  Store.close store

(* [base], then a 3-record transaction cut [cut] bytes into its frame,
   as a crash mid-flush leaves it. Returns where the cut frame starts. *)
let torn_txn_dir cut =
  let dir = tmp_dir () in
  let store, _, _, _ = ok (Store.open_dir dir) in
  check_ok "base" (Store.append store [ "base" ]);
  check_ok "txn" (Store.append store [ "t1"; "t2"; "t3" ]);
  Store.close store;
  let base_end = frame_bytes [ "base" ] in
  Unix.truncate (Filename.concat dir "journal.log") (base_end + cut);
  (dir, base_end)

let test_store_drops_torn_txn () =
  (* store-level all-or-nothing: a transaction cut at any byte of its
     frame replays none of its records, open cuts it from the file, and
     the next open is clean *)
  for cut = 1 to frame_bytes [ "t1"; "t2"; "t3" ] - 1 do
    let name = Printf.sprintf "cut %d" cut in
    let dir, base_end = torn_txn_dir cut in
    let jpath = Filename.concat dir "journal.log" in
    let store, _, records, report = ok (Store.open_dir dir) in
    Alcotest.(check (list string)) (name ^ ": txn gone") [ "base" ] records;
    Alcotest.(check int) (name ^ ": bytes counted") cut
      report.Store.bytes_dropped;
    Alcotest.(check bool) (name ^ ": torn reported") true
      (report.Store.torn_tail <> None);
    Alcotest.(check bool) (name ^ ": not clean") false
      (Store.recovery_clean report);
    Alcotest.(check int) (name ^ ": cut back") base_end
      (Unix.stat jpath).Unix.st_size;
    (* the store is immediately usable and the damage does not persist *)
    check_ok "after" (Store.append store [ "after" ]);
    Store.close store;
    let _, _, records, report = ok (Store.open_dir dir) in
    Alcotest.(check (list string)) (name ^ ": healed") [ "base"; "after" ]
      records;
    Alcotest.(check bool) (name ^ ": second open clean") true
      (Store.recovery_clean report)
  done

let test_flipped_record_quarantines_txn () =
  (* a byte flipped anywhere inside a mid-journal transaction's frame —
     its header or any of its records — quarantines exactly that
     transaction; its neighbours replay *)
  let mid = [ "m1"; "m2"; "m3" ] in
  let mid_start = frame_bytes [ "a" ] in
  let mid_end = mid_start + frame_bytes mid in
  for off = mid_start to mid_end - 1 do
    let name = Printf.sprintf "byte %d" off in
    let dir = tmp_dir () in
    let store, _, _, _ = ok (Store.open_dir dir) in
    check_ok "a" (Store.append store [ "a" ]);
    check_ok "mid" (Store.append store mid);
    check_ok "z" (Store.append store [ "z" ]);
    Store.close store;
    let fd =
      Unix.openfile (Filename.concat dir "journal.log") [ Unix.O_RDWR ] 0o644
    in
    ignore (Unix.lseek fd off Unix.SEEK_SET);
    let b = Bytes.create 1 in
    ignore (Unix.read fd b 0 1);
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x20));
    ignore (Unix.lseek fd off Unix.SEEK_SET);
    ignore (Unix.write fd b 0 1);
    Unix.close fd;
    let store, _, records, report = ok (Store.open_dir dir) in
    Store.close store;
    Alcotest.(check (list string)) (name ^ ": neighbours replay") [ "a"; "z" ]
      records;
    Alcotest.(check (list (pair int int))) (name ^ ": exactly that frame")
      [ (mid_start, mid_end) ]
      (List.map (fun d -> (d.Journal.d_offset, d.Journal.d_end))
         report.Store.quarantined);
    Alcotest.(check (option string)) (name ^ ": not a torn tail") None
      report.Store.torn_tail
  done

(* ------------------------------------------------------------------ *)
(* Snapshots                                                            *)
(* ------------------------------------------------------------------ *)

let snap_pair = Alcotest.(option (pair int string))
let snap_string = Option.map payload_string

let read_snap path =
  Option.map (fun (epoch, p) -> (epoch, payload_string p)) (ok (Snapshot_file.read path))

let test_snapshot_roundtrip () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "s.bin" in
  Alcotest.check snap_pair "missing" None (read_snap path);
  check_ok "write" (Snapshot_file.write path ~epoch:1 "payload");
  Alcotest.check snap_pair "read" (Some (1, "payload")) (read_snap path);
  check_ok "overwrite" (Snapshot_file.write path ~epoch:2 "payload2");
  Alcotest.check snap_pair "read2" (Some (2, "payload2")) (read_snap path);
  Alcotest.(check bool) "no tmp left" false (Sys.file_exists (path ^ ".tmp"))

let test_snapshot_corrupt () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "s.bin" in
  check_ok "write" (Snapshot_file.write path ~epoch:1 "payload");
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd 18 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "!") 0 1);
  Unix.close fd;
  check_err "corrupt"
    (function Seed_util.Seed_error.Corrupt _ -> true | _ -> false)
    (Snapshot_file.read path)

(* ------------------------------------------------------------------ *)
(* Store                                                                *)
(* ------------------------------------------------------------------ *)

let test_store_lifecycle () =
  let dir = tmp_dir () in
  let store, snap, records, report = ok (Store.open_dir dir) in
  Alcotest.(check (option string)) "fresh snapshot" None (snap_string snap);
  Alcotest.(check (list string)) "fresh journal" [] records;
  Alcotest.(check bool) "clean recovery" true (Store.recovery_clean report);
  Alcotest.(check int) "fresh epoch" 0 report.Store.epoch;
  check_ok "r1" (Store.append store [ "r1" ]);
  check_ok "r2" (Store.append store [ "r2" ]);
  Alcotest.(check int) "journal size" 2 (Store.journal_size store);
  Store.close store;
  let store, snap, records, report = ok (Store.open_dir dir) in
  Alcotest.(check (option string)) "still no snapshot" None (snap_string snap);
  Alcotest.(check (list string)) "recovered" [ "r1"; "r2" ] records;
  Alcotest.(check int) "replayed count" 2 report.Store.records_replayed;
  check_ok "compact" (Store.compact store ~snapshot:"SNAP");
  Alcotest.(check int) "journal emptied" 0 (Store.journal_size store);
  check_ok "r3" (Store.append store [ "r3" ]);
  Store.close store;
  let store, snap, records, report = ok (Store.open_dir dir) in
  Alcotest.(check int) "epoch bumped" 1 report.Store.epoch;
  Alcotest.(check (option string)) "snapshot" (Some "SNAP") (snap_string snap);
  Alcotest.(check (list string)) "tail" [ "r3" ] records;
  Alcotest.(check bool) "clean after compact" true (Store.recovery_clean report);
  Alcotest.(check bool) "nothing to retire into generation 1" false
    (Sys.file_exists (Filename.concat dir "snapshot.bin.1"));
  Store.close store

let test_store_append_after_close_fails () =
  let dir = tmp_dir () in
  let store, _, _, _ = ok (Store.open_dir dir) in
  Store.close store;
  check_err "closed"
    (function Seed_util.Seed_error.Io_error _ -> true | _ -> false)
    (Store.append store [ "x" ])

let test_store_sync_policies () =
  (* both durability levels accept and recover the same records when
     the process shuts down cleanly *)
  List.iter
    (fun sync ->
      let dir = tmp_dir () in
      let store, _, _, _ = ok (Store.open_dir ~sync dir) in
      check_ok "a" (Store.append store [ "a" ]);
      check_ok "b" (Store.append store [ "b" ]);
      check_ok "c" (Store.append store [ "c" ]);
      Store.close store;
      let store, _, records, _ = ok (Store.open_dir dir) in
      Alcotest.(check (list string)) "all recovered" [ "a"; "b"; "c" ] records;
      Store.close store)
    [ `Always_fsync; `Flush_only ]

(* ------------------------------------------------------------------ *)
(* Epochs                                                               *)
(* ------------------------------------------------------------------ *)

let test_journal_epoch_tagging () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "j.log" in
  let j = ok (Journal.open_ ~epoch:7 path) in
  check_ok "a" (append_txns j [ [ "alpha" ] ]);
  Journal.close j;
  let s = ok (Journal.scan path) in
  Alcotest.(check (list int)) "epochs" [ 7 ]
    (List.map (fun f -> f.Journal.f_epoch) s.Journal.frames);
  Alcotest.(check bool) "no damage" true (s.Journal.scan_damage = [])

let test_stale_journal_skipped () =
  (* a journal left behind by a crash between snapshot rename and
     journal truncation predates the snapshot's epoch: its records are
     already folded into the snapshot and must NOT be replayed *)
  let dir = tmp_dir () in
  let store, _, _, _ = ok (Store.open_dir dir) in
  check_ok "r1" (Store.append store [ "r1" ]);
  check_ok "r2" (Store.append store [ "r2" ]);
  Store.close store;
  (* simulate the interrupted compact: the new snapshot (epoch 1) is
     durable but the epoch-0 journal was never truncated *)
  check_ok "snapshot"
    (Snapshot_file.write (Filename.concat dir "snapshot.bin") ~epoch:1
       "SNAP-r1-r2");
  let store, snap, records, report = ok (Store.open_dir dir) in
  Alcotest.(check (option string)) "snapshot" (Some "SNAP-r1-r2") (snap_string snap);
  Alcotest.(check (list string)) "stale records skipped" [] records;
  Alcotest.(check bool) "flagged" true report.Store.stale_journal;
  Alcotest.(check bool) "bytes counted" true (report.Store.bytes_dropped > 0);
  Alcotest.(check int) "epoch adopted" 1 report.Store.epoch;
  (* the skip is persistent: the stale journal was truncated on open *)
  check_ok "r3" (Store.append store [ "r3" ]);
  Store.close store;
  let _, _, records, report = ok (Store.open_dir dir) in
  Alcotest.(check (list string)) "new epoch records" [ "r3" ] records;
  Alcotest.(check bool) "second open clean" true (Store.recovery_clean report)

let test_journal_ahead_of_snapshot_refused () =
  (* records whose epoch exceeds the snapshot's depend on a snapshot
     that does not exist — replaying them would corrupt silently *)
  let dir = tmp_dir () in
  let jpath = Filename.concat dir "journal.log" in
  let j = ok (Journal.open_ ~epoch:3 jpath) in
  check_ok "r" (append_txns j [ [ "orphan" ] ]);
  Journal.close j;
  check_err "refused"
    (function Seed_util.Seed_error.Corrupt _ -> true | _ -> false)
    (Store.open_dir dir)

let test_torn_tail_truncated_on_open () =
  let dir = tmp_dir () in
  let store, _, _, _ = ok (Store.open_dir dir) in
  check_ok "r1" (Store.append store [ "r1" ]);
  check_ok "r2" (Store.append store [ "r2" ]);
  Store.close store;
  let jpath = Filename.concat dir "journal.log" in
  let intact = 2 * frame_bytes [ "r1" ] in
  let size = (Unix.stat jpath).Unix.st_size in
  Alcotest.(check int) "frame math" intact size;
  (* cut the second frame short *)
  Unix.truncate jpath (size - 9);
  let store, _, records, report = ok (Store.open_dir dir) in
  Alcotest.(check (list string)) "prefix" [ "r1" ] records;
  Alcotest.(check int) "dropped" (frame_bytes [ "r2" ] - 9)
    report.Store.bytes_dropped;
  Alcotest.(check bool) "torn reported" true (report.Store.torn_tail <> None);
  Store.close store;
  (* the damage is gone from disk, not just ignored *)
  Alcotest.(check int) "file cut back" (frame_bytes [ "r1" ])
    (Unix.stat jpath).Unix.st_size;
  let _, _, records, report = ok (Store.open_dir dir) in
  Alcotest.(check (list string)) "stable" [ "r1" ] records;
  Alcotest.(check bool) "clean now" true (Store.recovery_clean report)

(* ------------------------------------------------------------------ *)
(* Fault injection                                                      *)
(* ------------------------------------------------------------------ *)

let test_fsync_failure_on_append () =
  let dir = tmp_dir () in
  let f = Faulty_io.create ~fail_fsync:0 () in
  let store, _, _, _ =
    ok (Store.open_dir ~io:(Faulty_io.io f) ~sync:`Always_fsync dir)
  in
  check_err "append surfaces the fsync failure"
    (function Seed_util.Seed_error.Io_error _ -> true | _ -> false)
    (Store.append store [ "r1" ]);
  (* the store survives: the next append (fsync healthy again) works *)
  check_ok "next append" (Store.append store [ "r2" ]);
  Store.close store;
  let _, _, _, _ = ok (Store.open_dir dir) in
  ()

let test_rename_failure_during_snapshot_write () =
  let dir = tmp_dir () in
  let f = Faulty_io.create ~fail_rename:0 () in
  let store, _, _, _ = ok (Store.open_dir ~io:(Faulty_io.io f) dir) in
  check_ok "r1" (Store.append store [ "r1" ]);
  check_err "compact fails"
    (function Seed_util.Seed_error.Io_error _ -> true | _ -> false)
    (Store.compact store ~snapshot:"SNAP");
  (* no half-written snapshot or stray tmp file is left behind *)
  Alcotest.(check bool) "no tmp" false
    (Sys.file_exists (Filename.concat dir "snapshot.bin.tmp"));
  Alcotest.(check bool) "no snapshot" false
    (Sys.file_exists (Filename.concat dir "snapshot.bin"));
  (* the store stays usable on its pre-compaction state *)
  check_ok "r2" (Store.append store [ "r2" ]);
  Store.close store;
  let store, snap, records, report = ok (Store.open_dir dir) in
  Alcotest.(check (option string)) "still journal-only" None (snap_string snap);
  Alcotest.(check (list string)) "nothing lost" [ "r1"; "r2" ] records;
  Alcotest.(check bool) "clean" true (Store.recovery_clean report);
  check_ok "compact" (Store.compact store ~snapshot:"SNAP");
  check_ok "r3" (Store.append store [ "r3" ]);
  Store.close store;
  (* with a snapshot to replace, compaction retires it to generation 1
     (rename 0) before the new one's tmp-file rename (rename 1) fails:
     the retired snapshot goes back *)
  let f = Faulty_io.create ~fail_rename:1 () in
  let store, _, _, _ = ok (Store.open_dir ~io:(Faulty_io.io f) dir) in
  check_err "second compact fails"
    (function Seed_util.Seed_error.Io_error _ -> true | _ -> false)
    (Store.compact store ~snapshot:"SNAP2");
  Alcotest.check snap_pair "retired snapshot restored" (Some (1, "SNAP"))
    (read_snap (Filename.concat dir "snapshot.bin"));
  Alcotest.(check bool) "generation 1 empty again" false
    (Sys.file_exists (Filename.concat dir "snapshot.bin.1"));
  check_ok "r4" (Store.append store [ "r4" ]);
  Store.close store;
  let _, snap, records, report = ok (Store.open_dir dir) in
  Alcotest.(check (option string)) "pre-compaction snapshot" (Some "SNAP") (snap_string snap);
  Alcotest.(check (list string)) "journal kept" [ "r3"; "r4" ] records;
  Alcotest.(check bool) "clean again" true (Store.recovery_clean report)

let test_enospc_mid_journal_frame () =
  let dir = tmp_dir () in
  let f = Faulty_io.create ~enospc_write:1 () in
  let store, _, _, _ = ok (Store.open_dir ~io:(Faulty_io.io f) dir) in
  check_ok "r1" (Store.append store [ "r1" ]);
  check_err "disk full"
    (function Seed_util.Seed_error.Io_error m -> String.length m > 0 | _ -> false)
    (Store.append store [ "r2-too-big-for-the-disk" ]);
  Store.close store;
  (* the failed append cut its half-written frame back off: the journal
     ends at the last frame that landed *)
  let store, _, records, report = ok (Store.open_dir dir) in
  Alcotest.(check (list string)) "intact prefix" [ "r1" ] records;
  Alcotest.(check bool) "no torn tail" true (report.Store.torn_tail = None);
  Alcotest.(check int) "no bytes dropped" 0 report.Store.bytes_dropped;
  check_ok "can append again" (Store.append store [ "r3" ]);
  Store.close store;
  let _, _, records, report = ok (Store.open_dir dir) in
  Alcotest.(check (list string)) "healed" [ "r1"; "r3" ] records;
  Alcotest.(check bool) "clean" true (Store.recovery_clean report)

(* A failed append whose cut-back fails too (here the cut's fsync)
   leaves bytes of unknown fate behind the last good frame: the store
   refuses every append until a reopen, which finds only what landed. *)
let test_failed_cut_back_refuses_appends () =
  let dir = tmp_dir () in
  (* fsync 0 is r1's; write 1 is r2's, and fsync 1 the cut's *)
  let f = Faulty_io.create ~enospc_write:1 ~fail_fsync:1 () in
  let store, _, _, _ =
    ok (Store.open_dir ~io:(Faulty_io.io f) ~sync:`Always_fsync dir)
  in
  check_ok "r1" (Store.append store [ "r1" ]);
  check_err "disk full" (function Seed_util.Seed_error.Io_error _ -> true | _ -> false)
    (Store.append store [ "r2" ]);
  check_err "refused until a reopen"
    (function Seed_util.Seed_error.Io_error _ -> true | _ -> false)
    (Store.append store [ "r3" ]);
  Store.close store;
  let store, _, records, _ = ok (Store.open_dir dir) in
  Alcotest.(check (list string)) "what landed" [ "r1" ] records;
  check_ok "appends again" (Store.append store [ "r4" ]);
  Store.close store;
  let _, _, records, report = ok (Store.open_dir dir) in
  Alcotest.(check (list string)) "healed" [ "r1"; "r4" ] records;
  Alcotest.(check bool) "clean" true (Store.recovery_clean report)

let test_crash_during_snapshot_tmp_write () =
  (* a torn crash inside the tmp-file write must leave the previous
     snapshot + journal pair untouched *)
  let dir = tmp_dir () in
  let store, _, _, _ = ok (Store.open_dir dir) in
  check_ok "r1" (Store.append store [ "r1" ]);
  check_ok "compact" (Store.compact store ~snapshot:"SNAP1");
  check_ok "r2" (Store.append store [ "r2" ]);
  Store.close store;
  (* count ops up to the tmp write: reopen (1 op), compact's open_trunc
     (1 op), then the write — crash at global step 2, mid-write *)
  let f = Faulty_io.create ~crash_at:2 ~torn:true () in
  let store, _, _, _ = ok (Store.open_dir ~io:(Faulty_io.io f) dir) in
  (try
     ignore (Store.compact store ~snapshot:"SNAP2");
     Alcotest.fail "expected a crash"
   with Faulty_io.Crash _ -> ());
  let _, snap, records, _ = ok (Store.open_dir dir) in
  Alcotest.(check (option string)) "old snapshot intact" (Some "SNAP1") (snap_string snap);
  Alcotest.(check (list string)) "journal intact" [ "r2" ] records

(* ------------------------------------------------------------------ *)
(* fsck                                                                 *)
(* ------------------------------------------------------------------ *)

let is_intact = function Store.Intact _ -> true | _ -> false
let is_damaged = function Store.Damaged _ -> true | _ -> false

let populated_dir () =
  let dir = tmp_dir () in
  let store, _, _, _ = ok (Store.open_dir dir) in
  check_ok "r1" (Store.append store [ "r1" ]);
  check_ok "compact" (Store.compact store ~snapshot:"SNAP");
  check_ok "r2" (Store.append store [ "r2" ]);
  Store.close store;
  dir

let test_fsck_healthy () =
  let dir = populated_dir () in
  let r = ok (Store.fsck dir) in
  Alcotest.(check bool) "healthy" true r.Store.fsck_healthy;
  Alcotest.(check bool) "snapshot intact" true (is_intact r.Store.fsck_snapshot);
  Alcotest.(check int) "frames" 1 r.Store.fsck_journal_frames;
  Alcotest.(check (option int)) "epoch" (Some 1) r.Store.fsck_journal_epoch;
  Alcotest.(check int) "no torn bytes" 0 r.Store.fsck_torn_bytes

let test_fsck_torn_tail () =
  let dir = populated_dir () in
  let jpath = Filename.concat dir "journal.log" in
  let size = (Unix.stat jpath).Unix.st_size in
  Unix.truncate jpath (size - 5);
  let r = ok (Store.fsck dir) in
  Alcotest.(check bool) "unhealthy" false r.Store.fsck_healthy;
  Alcotest.(check int) "torn bytes" (frame_bytes [ "r2" ] - 5)
    r.Store.fsck_torn_bytes;
  let r = ok (Store.fsck ~repair:true dir) in
  Alcotest.(check bool) "repaired" true r.Store.fsck_healthy;
  Alcotest.(check bool) "actions reported" true (r.Store.fsck_repairs <> []);
  let _, snap, records, report = ok (Store.open_dir dir) in
  Alcotest.(check (option string)) "snapshot kept" (Some "SNAP") (snap_string snap);
  Alcotest.(check (list string)) "tail dropped" [] records;
  Alcotest.(check bool) "clean open" true (Store.recovery_clean report)

let test_fsck_corrupt_snapshot_with_fallback () =
  let dir = populated_dir () in
  (* corrupt the snapshot but plant a same-epoch copy in generation 1,
     the shape a crash inside compaction's retire window leaves *)
  let snap = Filename.concat dir "snapshot.bin" in
  check_ok "generation 1"
    (Snapshot_file.write (Filename.concat dir "snapshot.bin.1") ~epoch:1
       "SNAP");
  let fd = Unix.openfile snap [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd 17 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "?") 0 1);
  Unix.close fd;
  let r = ok (Store.fsck dir) in
  Alcotest.(check bool) "unhealthy" false r.Store.fsck_healthy;
  Alcotest.(check bool) "snapshot damaged" true (is_damaged r.Store.fsck_snapshot);
  Alcotest.(check bool) "generation 1 intact" true
    (List.exists (fun (k, st) -> k = 1 && is_intact st) r.Store.fsck_generations);
  let r = ok (Store.fsck ~repair:true dir) in
  Alcotest.(check bool) "repaired" true r.Store.fsck_healthy;
  let _, snap_payload, records, _ = ok (Store.open_dir dir) in
  Alcotest.(check (option string)) "fallback data" (Some "SNAP") (snap_string snap_payload);
  Alcotest.(check (list string)) "journal matches fallback epoch" [ "r2" ] records

let test_fsck_corrupt_snapshot_no_fallback () =
  let dir = populated_dir () in
  let snap = Filename.concat dir "snapshot.bin" in
  let fd = Unix.openfile snap [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd 17 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "?") 0 1);
  Unix.close fd;
  (* open refuses: the data cannot be trusted *)
  check_err "open refuses"
    (function Seed_util.Seed_error.Corrupt _ -> true | _ -> false)
    (Store.open_dir dir);
  let r = ok (Store.fsck dir) in
  Alcotest.(check bool) "unhealthy" false r.Store.fsck_healthy;
  (* repair quarantines the snapshot; the store reopens empty *)
  let r = ok (Store.fsck ~repair:true dir) in
  Alcotest.(check bool) "healthy after repair" true r.Store.fsck_healthy;
  Alcotest.(check bool) "quarantine kept" true
    (Sys.file_exists (Filename.concat dir "snapshot.bin.corrupt"));
  let _, snap_payload, records, _ = ok (Store.open_dir dir) in
  Alcotest.(check (option string)) "empty" None (snap_string snap_payload);
  Alcotest.(check (list string)) "no records" [] records

let test_fsck_leftover_tmp_and_fallback () =
  let dir = populated_dir () in
  Out_channel.with_open_bin (Filename.concat dir "snapshot.bin.tmp")
    (fun oc -> Out_channel.output_string oc "garbage");
  (* an earlier release's mid-compaction fallback: open and fsck refuse
     the directory, naming the file, and touch nothing *)
  let old = Filename.concat dir "snapshot.bin.old" in
  check_ok "earlier release's fallback"
    (Snapshot_file.write old ~epoch:0 "OLD");
  let names_old = function
    | Ok _ -> false
    | Error e -> contains (Seed_util.Seed_error.to_string e) old
  in
  Alcotest.(check bool) "open_dir refuses, naming snapshot.bin.old" true
    (names_old (Store.open_dir dir));
  Alcotest.(check bool) "fsck --repair refuses too" true
    (names_old (Store.fsck ~repair:true dir));
  Alcotest.(check bool) "tmp untouched" true
    (Sys.file_exists (Filename.concat dir "snapshot.bin.tmp"));
  Sys.remove old;
  let r = ok (Store.fsck dir) in
  Alcotest.(check bool) "unhealthy" false r.Store.fsck_healthy;
  Alcotest.(check bool) "tmp seen" true r.Store.fsck_tmp_leftover;
  let r = ok (Store.fsck ~repair:true dir) in
  Alcotest.(check bool) "healthy" true r.Store.fsck_healthy;
  Alcotest.(check bool) "tmp gone" false
    (Sys.file_exists (Filename.concat dir "snapshot.bin.tmp"))

let test_fsck_torn_txn () =
  (* a multi-record transaction cut mid-frame is reported as torn bytes,
     and --repair heals it *)
  (* mid-payload: the first record whole, the second cut short *)
  let cut = 16 + 5 in
  let dir, _ = torn_txn_dir cut in
  let r = ok (Store.fsck dir) in
  Alcotest.(check bool) "unhealthy" false r.Store.fsck_healthy;
  Alcotest.(check int) "torn bytes" cut r.Store.fsck_torn_bytes;
  Alcotest.(check int) "replayable records" 1 r.Store.fsck_journal_frames;
  let r = ok (Store.fsck ~repair:true dir) in
  Alcotest.(check bool) "repaired" true r.Store.fsck_healthy;
  Alcotest.(check bool) "repair names the torn bytes" true
    (List.exists (fun m -> contains m "torn") r.Store.fsck_repairs);
  let _, _, records, report = ok (Store.open_dir dir) in
  Alcotest.(check (list string)) "only whole transactions" [ "base" ] records;
  Alcotest.(check bool) "clean open" true (Store.recovery_clean report)

(* ------------------------------------------------------------------ *)
(* Self-healing recovery                                                *)
(* ------------------------------------------------------------------ *)

(* three standalone records, then flip one byte inside the middle
   frame's payload — a mid-file corruption that is NOT a torn tail *)
let corrupt_middle_frame dir =
  let jpath = Filename.concat dir "journal.log" in
  let fd = Unix.openfile jpath [ Unix.O_RDWR ] 0o644 in
  (* every frame holds one 2-byte record; flip frame 2's first payload
     byte *)
  ignore (Unix.lseek fd (frame_bytes [ "r1" ] + 16) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "!") 0 1);
  Unix.close fd

let three_record_dir () =
  let dir = tmp_dir () in
  let store, _, _, _ = ok (Store.open_dir dir) in
  check_ok "r1" (Store.append store [ "r1" ]);
  check_ok "r2" (Store.append store [ "r2" ]);
  check_ok "r3" (Store.append store [ "r3" ]);
  Store.close store;
  dir

let test_mid_journal_corruption_quarantined () =
  (* a corrupt frame in the middle of the journal must not cost the
     committed records on either side of it: the scanner resynchronizes
     on the next frame boundary and reports the damage *)
  let dir = three_record_dir () in
  corrupt_middle_frame dir;
  let store, _, records, report = ok (Store.open_dir dir) in
  Alcotest.(check (list string)) "survivors" [ "r1"; "r3" ] records;
  Alcotest.(check int) "one region" 1 (List.length report.Store.quarantined);
  (match report.Store.quarantined with
  | [ d ] ->
    Alcotest.(check int) "region start" (frame_bytes [ "r1" ]) d.Journal.d_offset;
    Alcotest.(check int) "region end" (2 * frame_bytes [ "r1" ]) d.Journal.d_end
  | _ -> Alcotest.fail "expected one damage region");
  Alcotest.(check (option string)) "not a torn tail" None report.Store.torn_tail;
  Alcotest.(check bool) "not clean" false (Store.recovery_clean report);
  (* the store stays usable; the damage stays on disk until repair *)
  check_ok "append after" (Store.append store [ "r4" ]);
  Store.close store;
  let _, _, records, report = ok (Store.open_dir dir) in
  Alcotest.(check (list string)) "stable" [ "r1"; "r3"; "r4" ] records;
  Alcotest.(check int) "still quarantined" 1
    (List.length report.Store.quarantined)

let test_fsck_excises_quarantined_region () =
  let dir = three_record_dir () in
  corrupt_middle_frame dir;
  let r = ok (Store.fsck dir) in
  Alcotest.(check bool) "unhealthy" false r.Store.fsck_healthy;
  Alcotest.(check int) "regions" 1 r.Store.fsck_quarantined_regions;
  Alcotest.(check int) "bytes" (frame_bytes [ "r2" ])
    r.Store.fsck_quarantined_bytes;
  let r = ok (Store.fsck ~repair:true dir) in
  Alcotest.(check bool) "healthy after repair" true r.Store.fsck_healthy;
  Alcotest.(check bool) "repairs named" true (r.Store.fsck_repairs <> []);
  let _, _, records, report = ok (Store.open_dir dir) in
  Alcotest.(check (list string)) "survivors kept" [ "r1"; "r3" ] records;
  Alcotest.(check bool) "clean open" true (Store.recovery_clean report)

let generations_dir () =
  (* two compactions leave snapshot.bin (epoch 2, "S2"), generation 1
     (epoch 1, "S1"), and an epoch-2 journal holding "c" *)
  let dir = tmp_dir () in
  let store, _, _, _ = ok (Store.open_dir dir) in
  check_ok "a" (Store.append store [ "a" ]);
  check_ok "compact1" (Store.compact store ~snapshot:"S1");
  check_ok "b" (Store.append store [ "b" ]);
  check_ok "compact2" (Store.compact store ~snapshot:"S2");
  check_ok "c" (Store.append store [ "c" ]);
  Store.close store;
  dir

let corrupt_file path =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd 17 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "?") 0 1);
  Unix.close fd

let test_generation_rotation_on_compact () =
  let dir = generations_dir () in
  Alcotest.check snap_pair "generation 1 holds the previous snapshot"
    (Some (1, "S1"))
    (read_snap (Filename.concat dir "snapshot.bin.1"));
  Alcotest.(check bool) "the first compact retired nothing" false
    (Sys.file_exists (Filename.concat dir "snapshot.bin.2"));
  (* with snapshot.bin intact, open reads it and the journal, never a
     generation *)
  let f = Faulty_io.create () in
  let store, _, _, _ = ok (Store.open_dir ~io:(Faulty_io.io f) dir) in
  Alcotest.(check int) "one snapshot read, one journal scan" 2
    (Faulty_io.reads f);
  (* a third compact shifts S2 into slot 1 and retires S1 to slot 2 *)
  check_ok "compact3" (Store.compact store ~snapshot:"S3");
  Store.close store;
  Alcotest.check snap_pair "slot 1 rotated" (Some (2, "S2"))
    (read_snap (Filename.concat dir "snapshot.bin.1"));
  Alcotest.check snap_pair "slot 2 rotated" (Some (1, "S1"))
    (read_snap (Filename.concat dir "snapshot.bin.2"));
  (* two generations are kept: a fourth compact drops S1 for good *)
  let store, _, _, _ = ok (Store.open_dir dir) in
  check_ok "compact4" (Store.compact store ~snapshot:"S4");
  Store.close store;
  Alcotest.(check bool) "oldest dropped" false
    (Sys.file_exists (Filename.concat dir "snapshot.bin.3"))

let test_generation_fallback_on_open () =
  (* the newest snapshot is corrupt: recovery must walk back to
     generation 1, quarantine the damaged primary, and drop the
     now-unreplayable epoch-2 journal records *)
  let dir = generations_dir () in
  corrupt_file (Filename.concat dir "snapshot.bin");
  let store, snap, records, report = ok (Store.open_dir dir) in
  Alcotest.(check (option string)) "generation data" (Some "S1") (snap_string snap);
  Alcotest.(check (list string)) "ahead records dropped" [] records;
  Alcotest.(check (option int)) "generation flagged" (Some 1)
    report.Store.snapshot_generation;
  Alcotest.(check int) "ahead counted" 1 report.Store.ahead_dropped;
  Alcotest.(check bool) "not clean" false (Store.recovery_clean report);
  Alcotest.(check int) "epoch adopted" 1 report.Store.epoch;
  Alcotest.(check bool) "damaged primary quarantined" true
    (Sys.file_exists (Filename.concat dir "snapshot.bin.corrupt"));
  (* recovery converges: life goes on from the generation's state *)
  check_ok "append" (Store.append store [ "d" ]);
  Store.close store;
  let _, snap, records, report = ok (Store.open_dir dir) in
  Alcotest.(check (option string)) "promoted" (Some "S1") (snap_string snap);
  Alcotest.(check (list string)) "new records" [ "d" ] records;
  Alcotest.(check bool) "second open clean" true (Store.recovery_clean report)

let test_fsck_promotes_generation () =
  let dir = generations_dir () in
  corrupt_file (Filename.concat dir "snapshot.bin");
  let r = ok (Store.fsck dir) in
  Alcotest.(check bool) "unhealthy" false r.Store.fsck_healthy;
  Alcotest.(check bool) "snapshot damaged" true (is_damaged r.Store.fsck_snapshot);
  Alcotest.(check bool) "generation 1 intact" true
    (List.exists
       (fun (k, st) -> k = 1 && is_intact st)
       r.Store.fsck_generations);
  let r = ok (Store.fsck ~repair:true dir) in
  Alcotest.(check bool) "healthy after repair" true r.Store.fsck_healthy;
  let _, snap, _, _ = ok (Store.open_dir dir) in
  Alcotest.(check (option string)) "generation promoted" (Some "S1") (snap_string snap)

let test_transient_reads_absorbed () =
  (* EINTR-class read faults on open are retried away: the recovery is
     clean and only the retry counter remembers them *)
  let dir = populated_dir () in
  let f = Faulty_io.create ~transient_reads:2 () in
  let store, snap, records, report = ok (Store.open_dir ~io:(Faulty_io.io f) dir) in
  Alcotest.(check (option string)) "snapshot read" (Some "SNAP") (snap_string snap);
  Alcotest.(check (list string)) "journal read" [ "r2" ] records;
  Alcotest.(check bool) "clean" true (Store.recovery_clean report);
  Alcotest.(check bool) "retries counted" true (report.Store.io_retries >= 2);
  Store.close store

let test_flip_read_double_checked () =
  (* a bit flipped on the wire (not on disk) makes the first journal
     scan look damaged; the double-check re-read comes back clean, so
     nothing is quarantined or truncated *)
  let dir = populated_dir () in
  let f = Faulty_io.create ~flip_read:1 () in
  let _, snap, records, report = ok (Store.open_dir ~io:(Faulty_io.io f) dir) in
  Alcotest.(check (option string)) "snapshot" (Some "SNAP") (snap_string snap);
  Alcotest.(check (list string)) "no data lost" [ "r2" ] records;
  Alcotest.(check (list pass)) "nothing quarantined" []
    report.Store.quarantined;
  Alcotest.(check bool) "clean" true (Store.recovery_clean report);
  Alcotest.(check bool) "re-read counted" true (report.Store.io_retries >= 1)

let test_short_read_double_checked () =
  (* a short read looks like a torn tail; the re-read proves the file
     is whole, so the tail must NOT be truncated *)
  let dir = populated_dir () in
  let jsize = (Unix.stat (Filename.concat dir "journal.log")).Unix.st_size in
  let f = Faulty_io.create ~short_read:1 () in
  let _, _, records, report = ok (Store.open_dir ~io:(Faulty_io.io f) dir) in
  Alcotest.(check (list string)) "no data lost" [ "r2" ] records;
  Alcotest.(check (option string)) "no torn tail" None report.Store.torn_tail;
  Alcotest.(check bool) "clean" true (Store.recovery_clean report);
  Alcotest.(check int) "file untouched" jsize
    (Unix.stat (Filename.concat dir "journal.log")).Unix.st_size

let test_eio_read_is_permanent () =
  (* EIO is a media error, not a transient: with no fallback in the
     directory the open must surface it rather than spin retrying *)
  let dir = populated_dir () in
  let f = Faulty_io.create ~eio_read:0 () in
  check_err "surfaced"
    (function Seed_util.Seed_error.Io_error _ -> true | _ -> false)
    (Store.open_dir ~io:(Faulty_io.io f) dir);
  Alcotest.(check bool) "no runaway retries" true (Faulty_io.reads f <= 3)

let test_lie_fsync_keeps_schedule () =
  (* a lying fsync must not change the operation schedule (crash-step
     sweeps depend on it) and a clean shutdown still recovers *)
  let run lie =
    let dir = tmp_dir () in
    let f = Faulty_io.create ~lie_fsync:lie () in
    let store, _, _, _ =
      ok (Store.open_dir ~io:(Faulty_io.io f) ~sync:`Always_fsync dir)
    in
    check_ok "a" (Store.append store [ "a" ]);
    check_ok "compact" (Store.compact store ~snapshot:"S");
    check_ok "b" (Store.append store [ "b" ]);
    Store.close store;
    let _, snap, records, _ = ok (Store.open_dir dir) in
    Alcotest.(check (option string)) "snapshot" (Some "S") (snap_string snap);
    Alcotest.(check (list string)) "records" [ "b" ] records;
    Faulty_io.steps f
  in
  let honest = run false and lying = run true in
  Alcotest.(check int) "same step schedule" honest lying

let test_salvage_sweep () =
  (* ISSUE acceptance: for EVERY single corrupt mid-journal frame, and
     for a corrupt newest snapshot generation, fsck --repair + reopen
     recovers with the damage quarantined and every acked committed
     record outside the damage intact *)
  let mk () =
    let dir = tmp_dir () in
    let store, _, _, _ = ok (Store.open_dir dir) in
    check_ok "a" (Store.append store [ "a1" ]);
    check_ok "compact" (Store.compact store ~snapshot:"BASE");
    check_ok "g1" (Store.append store [ "g1a"; "g1b" ]);
    check_ok "solo" (Store.append store [ "solo" ]);
    check_ok "g2" (Store.append store [ "g2a"; "g2b" ]);
    Store.close store;
    dir
  in
  (* count the journal frames of a pristine copy *)
  let probe = mk () in
  let s = ok (Journal.scan (Filename.concat probe "journal.log")) in
  let frames = s.Journal.frames in
  Alcotest.(check int) "one frame per transaction" 3 (List.length frames);
  List.iteri
    (fun i f ->
      let dir = mk () in
      let jpath = Filename.concat dir "journal.log" in
      (* flip a payload/header byte inside frame i *)
      let fd = Unix.openfile jpath [ Unix.O_RDWR ] 0o644 in
      ignore (Unix.lseek fd (f.Journal.f_offset + 5) Unix.SEEK_SET);
      let b = Bytes.create 1 in
      ignore (Unix.read fd b 0 1);
      ignore (Unix.lseek fd (f.Journal.f_offset + 5) Unix.SEEK_SET);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x20));
      ignore (Unix.write fd b 0 1);
      Unix.close fd;
      let name = Printf.sprintf "frame %d" i in
      (* recovery must succeed and keep every committed unit that does
         not share a transaction group with the damaged frame *)
      let _ = ok (Store.fsck ~repair:true dir) in
      let _, snap, records, report = ok (Store.open_dir dir) in
      Alcotest.(check (option string)) (name ^ ": snapshot") (Some "BASE") (snap_string snap);
      Alcotest.(check bool) (name ^ ": clean after repair") true
        (Store.recovery_clean report);
      let survived r = List.mem r records in
      let group_intact g = List.for_all survived g in
      let group_gone g = List.for_all (fun r -> not (survived r)) g in
      Alcotest.(check bool) (name ^ ": g1 all-or-nothing") true
        (group_intact [ "g1a"; "g1b" ] || group_gone [ "g1a"; "g1b" ]);
      Alcotest.(check bool) (name ^ ": g2 all-or-nothing") true
        (group_intact [ "g2a"; "g2b" ] || group_gone [ "g2a"; "g2b" ]);
      (* at most the damaged frame's own transaction may be missing *)
      let units = [ [ "g1a"; "g1b" ]; [ "solo" ]; [ "g2a"; "g2b" ] ] in
      let lost = List.filter (fun u -> not (group_intact u)) units in
      Alcotest.(check bool) (name ^ ": at most one unit lost") true
        (List.length lost <= 1))
    frames;
  (* corrupt newest snapshot generation: recovery falls back to it only
     when the primary dies too, so damage there must not block opening *)
  let dir = generations_dir () in
  corrupt_file (Filename.concat dir "snapshot.bin.1");
  let _ = ok (Store.fsck ~repair:true dir) in
  let _, snap, records, report = ok (Store.open_dir dir) in
  Alcotest.(check (option string)) "primary wins" (Some "S2") (snap_string snap);
  Alcotest.(check (list string)) "journal intact" [ "c" ] records;
  Alcotest.(check bool) "clean" true (Store.recovery_clean report)

(* Open and fsck settle a store through one resolver and one journal
   classification: for each damage case, [open_dir] alone and
   [fsck --repair] followed by [open_dir] recover the same snapshot
   payload and records, and a second open is clean. Open leaves
   quarantined mid-journal regions in place (only repair excises them),
   so after open alone the second open may still report those. *)
let test_open_fsck_parity () =
  let truncate_journal by dir =
    let jpath = Filename.concat dir "journal.log" in
    Unix.truncate jpath ((Unix.stat jpath).Unix.st_size - by)
  in
  let cases =
    [
      ( "torn tail",
        fun () ->
          let dir = populated_dir () in
          truncate_journal 5 dir;
          dir );
      ( "quarantined mid-journal frame",
        fun () ->
          let dir = three_record_dir () in
          corrupt_middle_frame dir;
          dir );
      ( "stale journal",
        fun () ->
          let dir = three_record_dir () in
          check_ok "snapshot"
            (Snapshot_file.write (Filename.concat dir "snapshot.bin") ~epoch:1
               "SNAP");
          dir );
      ( "damaged primary, intact generation 1",
        fun () ->
          let dir = populated_dir () in
          check_ok "generation 1"
            (Snapshot_file.write (Filename.concat dir "snapshot.bin.1") ~epoch:1
               "SNAP");
          corrupt_file (Filename.concat dir "snapshot.bin");
          dir );
      ( "retired primary, new snapshot never landed",
        fun () ->
          let dir = populated_dir () in
          Unix.rename
            (Filename.concat dir "snapshot.bin")
            (Filename.concat dir "snapshot.bin.1");
          dir );
      ( "epoch-ahead frames after a generation fallback",
        fun () ->
          let dir = generations_dir () in
          corrupt_file (Filename.concat dir "snapshot.bin");
          dir );
      ( "leftover snapshot.bin.tmp",
        fun () ->
          let dir = populated_dir () in
          Out_channel.with_open_bin (Filename.concat dir "snapshot.bin.tmp")
            (fun oc -> Out_channel.output_string oc "garbage");
          dir );
    ]
  in
  let open_twice dir =
    let s, snap, records, _ = ok (Store.open_dir dir) in
    Store.close s;
    let s, snap2, records2, second = ok (Store.open_dir dir) in
    Store.close s;
    let snap = snap_string snap in
    Alcotest.(check (option string)) "second open: same snapshot" snap (snap_string snap2);
    Alcotest.(check (list string)) "second open: same records" records records2;
    (snap, records, second)
  in
  List.iter
    (fun (name, mk) ->
      let snap_a, records_a, second_a = open_twice (mk ()) in
      let dir_b = mk () in
      let r = ok (Store.fsck ~repair:true dir_b) in
      Alcotest.(check bool) (name ^ ": healthy after repair") true
        r.Store.fsck_healthy;
      let snap_b, records_b, second_b = open_twice dir_b in
      Alcotest.(check (option string)) (name ^ ": same snapshot") snap_a snap_b;
      Alcotest.(check (list string)) (name ^ ": same records") records_a
        records_b;
      Alcotest.(check bool) (name ^ ": second open clean after open") true
        (Store.recovery_clean { second_a with Store.quarantined = [] });
      Alcotest.(check bool) (name ^ ": second open clean after repair") true
        (Store.recovery_clean second_b))
    cases

(* ------------------------------------------------------------------ *)
(* Group commit over one journal; earlier layouts refused               *)
(* ------------------------------------------------------------------ *)

let test_write_stats () =
  let dir = tmp_dir () in
  let store, _, _, _ = ok (Store.open_dir ~sync:`Always_fsync dir) in
  check_ok "a" (Store.append store [ "a" ]);
  check_ok "b" (Store.append store [ "b" ]);
  check_ok "g" (Store.append store [ "c"; "d" ]);
  let s = Store.write_stats store in
  Alcotest.(check int) "txns submitted" 3 s.Commit_daemon.submitted;
  (* single-threaded: every transaction is its own batch and fsync *)
  Alcotest.(check int) "batches" 3 s.Commit_daemon.batches;
  Alcotest.(check int) "fsyncs" 3 s.Commit_daemon.fsyncs;
  Alcotest.(check int) "max batch" 1 s.Commit_daemon.max_batch;
  Store.close store

let test_concurrent_writers () =
  (* four writer domains on one journal: every transaction survives,
     each writer's groups replay in its own submission order, and the
     daemon counters account for every submission *)
  let dir = tmp_dir () in
  let store, _, _, _ = ok (Store.open_dir dir) in
  let n_domains = 4 and per = 50 in
  let ready = Atomic.make 0 in
  let worker d =
    Domain.spawn (fun () ->
        Atomic.incr ready;
        while Atomic.get ready < n_domains do
          Domain.cpu_relax ()
        done;
        for i = 0 to per - 1 do
          match
            Store.append store
              [
                Printf.sprintf "d%d-%03d-a" d i; Printf.sprintf "d%d-%03d-b" d i;
              ]
          with
          | Ok () -> ()
          | Error e -> failwith (Seed_util.Seed_error.to_string e)
        done)
  in
  let domains = List.init n_domains worker in
  List.iter Domain.join domains;
  let s = Store.write_stats store in
  Alcotest.(check int) "every txn submitted" (n_domains * per)
    s.Commit_daemon.submitted;
  Alcotest.(check bool) "no more batches than txns" true
    (s.Commit_daemon.batches <= s.Commit_daemon.submitted);
  Store.close store;
  let _, _, records, report = ok (Store.open_dir dir) in
  Alcotest.(check bool) "clean" true (Store.recovery_clean report);
  Alcotest.(check int) "every record survives" (n_domains * per * 2)
    (List.length records);
  for d = 0 to n_domains - 1 do
    let prefix = Printf.sprintf "d%d-" d in
    let mine =
      List.filter
        (fun r -> String.length r >= 3 && String.sub r 0 3 = prefix)
        records
    in
    let expected =
      List.concat
        (List.init per (fun i ->
             [
               Printf.sprintf "d%d-%03d-a" d i; Printf.sprintf "d%d-%03d-b" d i;
             ]))
    in
    Alcotest.(check (list string))
      (Printf.sprintf "writer %d order preserved" d)
      expected mine
  done

let test_partition_files_refused () =
  (* a directory holding a [journal.pK] file was written with
     partitioned journals, whose records this version cannot put back
     in order: open and fsck both refuse it, naming the file *)
  let dir = tmp_dir () in
  let store, _, _, _ = ok (Store.open_dir dir) in
  check_ok "a" (Store.append store [ "a" ]);
  Store.close store;
  let p1 = Filename.concat dir "journal.p1" in
  close_out (open_out p1);
  let names_p1 = function
    | Ok _ -> false
    | Error e -> contains (Seed_util.Seed_error.to_string e) p1
  in
  Alcotest.(check bool) "open_dir refuses, naming journal.p1" true
    (names_p1 (Store.open_dir dir));
  Alcotest.(check bool) "fsck refuses, naming journal.p1" true
    (names_p1 (Store.fsck dir));
  Alcotest.(check bool) "fsck --repair refuses too" true
    (names_p1 (Store.fsck ~repair:true dir));
  (* nothing was touched: without the file the store opens as before *)
  Sys.remove p1;
  let store, _, records, report = ok (Store.open_dir dir) in
  Alcotest.(check (list string)) "records intact" [ "a" ] records;
  Alcotest.(check bool) "clean" true (Store.recovery_clean report);
  Store.close store

let test_old_journal_refused () =
  (* a journal whose first frame carries an earlier release's magic —
     "SEE3" one-record frames or "SEEC" group markers — would read as
     damage here: open and fsck refuse it, naming the file, and leave
     it untouched *)
  List.iter
    (fun (old_magic, le_bytes) ->
      let dir = tmp_dir () in
      let jpath = Filename.concat dir "journal.log" in
      let header = Bytes.make 21 '\000' in
      Bytes.blit_string le_bytes 0 header 0 4;
      Bytes.set_int32_le header 8 5l;
      Out_channel.with_open_bin jpath (fun oc ->
          Out_channel.output_bytes oc header);
      let names_journal = function
        | Ok _ -> false
        | Error e -> contains (Seed_util.Seed_error.to_string e) jpath
      in
      Alcotest.(check bool) (old_magic ^ ": open_dir refuses") true
        (names_journal (Store.open_dir dir));
      Alcotest.(check bool) (old_magic ^ ": fsck refuses") true
        (names_journal (Store.fsck dir));
      Alcotest.(check bool) (old_magic ^ ": fsck --repair refuses") true
        (names_journal (Store.fsck ~repair:true dir));
      Alcotest.(check int) (old_magic ^ ": journal untouched") 21
        (Unix.stat jpath).Unix.st_size)
    (* the magics as they sit on disk, little-endian *)
    [ ("SEE3", "3EES"); ("SEEC", "CEES") ]

let () =
  Alcotest.run "storage"
    [
      ( "crc32",
        [
          tc "known vectors" test_crc_known_vectors;
          tc "slices" test_crc_sub;
          prop_crc_detects_flip;
        ] );
      ( "codec",
        [
          tc "primitives" test_codec_primitives;
          tc "truncation" test_codec_truncation;
          tc "trailing bytes" test_codec_trailing;
          tc "bad tags" test_codec_bad_tags;
          prop_codec_varint;
          prop_codec_string;
          prop_codec_float;
        ] );
      ( "journal",
        [
          tc "roundtrip" test_journal_roundtrip;
          tc "missing file" test_journal_missing_file;
          tc "torn tail recovery" test_journal_torn_tail;
          tc "corrupt payload" test_journal_corrupt_payload;
          tc "truncate" test_journal_truncate;
        ] );
      ( "transaction groups",
        [
          tc "roundtrip" test_group_roundtrip;
          tc "uncommitted group invisible" test_torn_txn_invisible;
          tc "append after torn transaction" test_append_after_torn_txn;
          tc "store group recovery" test_store_group_recovery;
          tc "store drops uncommitted group" test_store_drops_torn_txn;
          tc "flipped record quarantines its transaction"
            test_flipped_record_quarantines_txn;
        ] );
      ( "snapshot",
        [ tc "roundtrip" test_snapshot_roundtrip; tc "corrupt" test_snapshot_corrupt ] );
      ( "store",
        [
          tc "lifecycle" test_store_lifecycle;
          tc "closed store" test_store_append_after_close_fails;
          tc "sync policies" test_store_sync_policies;
        ] );
      ( "epochs",
        [
          tc "frames tagged" test_journal_epoch_tagging;
          tc "stale journal skipped" test_stale_journal_skipped;
          tc "journal ahead refused" test_journal_ahead_of_snapshot_refused;
          tc "torn tail truncated on open" test_torn_tail_truncated_on_open;
        ] );
      ( "fault injection",
        [
          tc "fsync failure on append" test_fsync_failure_on_append;
          tc "rename failure in snapshot write" test_rename_failure_during_snapshot_write;
          tc "enospc mid-frame" test_enospc_mid_journal_frame;
          tc "failed cut-back refuses appends" test_failed_cut_back_refuses_appends;
          tc "crash during tmp write" test_crash_during_snapshot_tmp_write;
        ] );
      ( "fsck",
        [
          tc "healthy" test_fsck_healthy;
          tc "torn tail" test_fsck_torn_tail;
          tc "corrupt snapshot with fallback" test_fsck_corrupt_snapshot_with_fallback;
          tc "corrupt snapshot without fallback" test_fsck_corrupt_snapshot_no_fallback;
          tc "leftover tmp and fallback" test_fsck_leftover_tmp_and_fallback;
          tc "torn transaction" test_fsck_torn_txn;
        ] );
      ( "self-healing",
        [
          tc "mid-journal corruption quarantined"
            test_mid_journal_corruption_quarantined;
          tc "fsck excises quarantined region"
            test_fsck_excises_quarantined_region;
          tc "generation rotation on compact" test_generation_rotation_on_compact;
          tc "generation fallback on open" test_generation_fallback_on_open;
          tc "fsck promotes generation" test_fsck_promotes_generation;
          tc "transient reads absorbed" test_transient_reads_absorbed;
          tc "flip read double-checked" test_flip_read_double_checked;
          tc "short read double-checked" test_short_read_double_checked;
          tc "eio read is permanent" test_eio_read_is_permanent;
          tc "lying fsync keeps schedule" test_lie_fsync_keeps_schedule;
          tc "salvage sweep" test_salvage_sweep;
          tc "open and fsck --repair agree" test_open_fsck_parity;
        ] );
      ( "partitions",
        [
          tc "write stats" test_write_stats;
          tc "concurrent writers" test_concurrent_writers;
          tc "partition files refused" test_partition_files_refused;
          tc "old journal frames refused" test_old_journal_refused;
        ] );
    ]
