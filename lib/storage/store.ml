open Seed_util
open Seed_error

type sync_policy = Journal.sync_policy

(* The open [journal.log] and its data-record count since the last
   compaction. Closed ([None]) only across compaction's journal swap
   and after {!close}. *)
type log = { mutable journal : Journal.t option; mutable records : int }

type t = {
  dir : string;
  io : Io.t;
  sync_policy : sync_policy;
  sleep : (float -> unit) option;
  mutable epoch : int;
  log : log;
  daemon : Commit_daemon.t;  (* owns every physical append to [log] *)
}

let snapshot_path dir = Filename.concat dir "snapshot.bin"
let tmp_path dir = Filename.concat dir "snapshot.bin.tmp"
let quarantine_path dir = Filename.concat dir "snapshot.bin.corrupt"
let journal_path dir = Filename.concat dir "journal.log"
let generation_path dir k = Printf.sprintf "%s.%d" (snapshot_path dir) k

(* replaced snapshots compaction keeps, [snapshot.bin.1] the newest *)
let generations = 2

let wrap_io = Seed_error.wrap_io

let ensure_dir dir =
  wrap_io (fun () ->
      if Sys.file_exists dir then begin
        if not (Sys.is_directory dir) then
          raise (Sys_error (dir ^ " exists and is not a directory"))
      end
      else Unix.mkdir dir 0o755)

(* Files only an earlier release leaves behind, with why this one
   refuses the directory rather than open it without them: [journal.pK]
   partitions hold records only a sequence-tag merge puts back in order,
   and [snapshot.bin.old] is the previous snapshot of a compaction that
   release did not finish. *)
let legacy_file f =
  let n = String.length f in
  if f = "snapshot.bin.old" then
    Some
      "compaction fallback of an earlier release, left mid-compaction; \
       open the store once with that release to finish the compaction"
  else if
    n > 9
    && String.starts_with ~prefix:"journal.p" f
    && String.for_all
         (function '0' .. '9' -> true | _ -> false)
         (String.sub f 9 (n - 9))
  then
    Some
      "journal partition files are not supported; this store was written \
       by a release with partitioned journals — compact it there and \
       remove its journal.pK files"
  else None

let refuse_legacy_files dir =
  let* names = wrap_io (fun () -> Sys.readdir dir) in
  match
    List.filter_map
      (fun f -> Option.map (fun why -> (f, why)) (legacy_file f))
      (List.sort compare (Array.to_list names))
  with
  | [] -> Ok ()
  | (f, why) :: _ ->
    fail
      (Invalid_operation
         (Printf.sprintf "%s: %s" (Filename.concat dir f) why))

(* ------------------------------------------------------------------ *)
(* Recovery                                                             *)
(* ------------------------------------------------------------------ *)

type recovery = {
  records_replayed : int;
  bytes_dropped : int;
  torn_tail : string option;
  quarantined : Journal.damage list;
  ahead_dropped : int;
  stale_journal : bool;
  snapshot_generation : int option;
  io_retries : int;
  epoch : int;
}

let recovery_clean r =
  r.bytes_dropped = 0
  && (not r.stale_journal)
  && r.quarantined = [] && r.ahead_dropped = 0
  && r.snapshot_generation = None

let damage_bytes ds =
  List.fold_left
    (fun acc d -> acc + (d.Journal.d_end - d.Journal.d_offset))
    0 ds

let pp_recovery ppf r =
  if recovery_clean r then
    Fmt.pf ppf "clean (epoch %d, %d records replayed%s)" r.epoch
      r.records_replayed
      (if r.io_retries > 0 then
         Printf.sprintf ", %d transient i/o retr%s" r.io_retries
           (if r.io_retries = 1 then "y" else "ies")
       else "")
  else
    Fmt.pf ppf "epoch %d, %d records replayed, %d bytes dropped%s%s%s%s%s%s"
      r.epoch r.records_replayed r.bytes_dropped
      (match r.torn_tail with
      | Some reason -> Printf.sprintf ", torn tail (%s)" reason
      | None -> "")
      (match r.quarantined with
      | [] -> ""
      | ds ->
        Printf.sprintf ", %d damaged region(s) quarantined (%d byte(s))"
          (List.length ds) (damage_bytes ds))
      (if r.ahead_dropped > 0 then
         Printf.sprintf
           ", %d record(s) ahead of the recovered snapshot discarded"
           r.ahead_dropped
       else "")
      (if r.stale_journal then ", stale journal skipped" else "")
      (match r.snapshot_generation with
      | Some g -> Printf.sprintf ", recovered from snapshot generation %d" g
      | None -> "")
      (if r.io_retries > 0 then
         Printf.sprintf ", %d transient i/o retr%s" r.io_retries
           (if r.io_retries = 1 then "y" else "ies")
       else "")

(* Reads one snapshot file. Transient read errors are retried with the
   default policy; a Corrupt result is re-read once (the corruption may
   live in the transport, not the medium) before it is believed. *)
let read_snapshot ~io ~sleep ~count_retry path =
  let corrupt_retried = ref false in
  Retry.with_retry ?sleep
    ~should_retry:(function
      | Io_transient _ -> true
      | Corrupt _ when not !corrupt_retried ->
        corrupt_retried := true;
        true
      | _ -> false)
    ~on_retry:(fun ~attempt:_ _ -> count_retry ())
    (fun () -> Snapshot_file.read ~io path)

(* The snapshot chain, newest first: [snapshot.bin] ([None]), then the
   generation slots. *)
let chain = None :: List.init generations (fun i -> Some (i + 1))

let slot_path dir = function
  | None -> snapshot_path dir
  | Some k -> generation_path dir k

type resolved = {
  found : (int option * (int * Snapshot_file.payload)) option;
      (* the newest intact snapshot: its slot, epoch and payload *)
  damaged : (int option * Seed_error.t) list;
      (* unreadable files ahead of it, newest first *)
}

(* The one recovery decision for the snapshot chain, shared by open and
   fsck: the newest intact snapshot wins, and every unreadable file
   ahead of it is damage. [read] is asked for no slot past the winner. *)
let resolve read =
  let rec walk damaged = function
    | [] -> { found = None; damaged = List.rev damaged }
    | gen :: rest -> (
      match read gen with
      | Ok (Some sp) -> { found = Some (gen, sp); damaged = List.rev damaged }
      | Ok None -> walk damaged rest
      | Error e -> walk ((gen, e) :: damaged) rest)
  in
  walk [] chain

let resolved_epoch r = match r.found with Some (_, (e, _)) -> e | None -> 0

let resolved_generation r =
  match r.found with Some (gen, _) -> gen | None -> None

(* Makes the resolved snapshot [snapshot.bin] again: a damaged primary is
   set aside as [snapshot.bin.corrupt], then the generation recovery fell
   back to is renamed over it (renames are atomic — a crash here is
   safe). Returns what it did. *)
let settle_snapshot ~io dir r =
  wrap_io (fun () ->
      let quarantined =
        if not (List.mem_assoc None r.damaged) then []
        else begin
          io.Io.rename (snapshot_path dir) (quarantine_path dir);
          [
            "quarantined unreadable snapshot.bin as snapshot.bin.corrupt"
            ^ if r.found = None then " (no intact generation — its data is lost)"
              else "";
          ]
        end
      in
      let promoted =
        match resolved_generation r with
        | None -> []
        | Some k ->
          io.Io.rename (generation_path dir k) (snapshot_path dir);
          [ Printf.sprintf "promoted snapshot generation %d to snapshot.bin" k ]
      in
      let acts = quarantined @ promoted in
      if acts <> [] then io.Io.fsync_dir dir;
      acts)

(* An interrupted snapshot write leaves [snapshot.bin.tmp]; it holds
   nothing the chain does not. *)
let sweep_tmp ~io dir =
  wrap_io (fun () ->
      if io.Io.exists (tmp_path dir) then begin
        io.Io.unlink (tmp_path dir);
        io.Io.fsync_dir dir;
        [ "removed leftover snapshot.bin.tmp" ]
      end
      else [])

let record_count frames =
  List.fold_left (fun n f -> n + List.length f.Journal.f_records) 0 frames

let frame_bytes fs = List.fold_left (fun acc f -> acc + f.Journal.f_bytes) 0 fs

(* The journal sorted against the snapshot's epoch — the one
   classification behind open's replay, fsck's report and fsck's
   repair. *)
type sorted = {
  live : Journal.frame list;  (* the snapshot epoch's transactions *)
  stale : Journal.frame list;
      (* older epochs: already folded into the snapshot *)
  ahead : Journal.frame list;
      (* newer epochs: appended after a snapshot that was later lost *)
  torn : Journal.damage option;  (* damage reaching end of file *)
  mid : Journal.damage list;  (* quarantined mid-file regions *)
  size : int;
}

let classify ~snap_epoch (s : Journal.scan_result) =
  let ahead, rest =
    List.partition (fun f -> f.Journal.f_epoch > snap_epoch) s.Journal.frames
  in
  let live, stale =
    List.partition (fun f -> f.Journal.f_epoch = snap_epoch) rest
  in
  {
    live;
    stale;
    ahead;
    torn = Journal.tail_damage s;
    mid = Journal.quarantined s;
    size = s.Journal.file_size;
  }

let torn_bytes j =
  match j.torn with Some d -> j.size - d.Journal.d_offset | None -> 0

(* Rewrites the journal to contain exactly the transactions [frames],
   under [epoch]. *)
let rewrite_journal ~io path ~epoch frames =
  let* () = Journal.truncate ~io path in
  let* j = Journal.open_ ~io ~sync:`Flush_only ~epoch path in
  let* () =
    Journal.append j (List.map (fun f -> Journal.frame ~epoch f.Journal.f_records) frames)
  in
  let* () = Journal.sync j in
  Journal.close j;
  Ok ()

(* Settles the journal on disk against its classification, so its
   damage does not persist into the next session. Frames of another
   epoch are rewritten away, keeping exactly the live transactions —
   epoch-ahead leftovers always (a future compaction would reuse their
   epoch and mistake them for live records), a stale prefix and the
   quarantined regions only with [excise]; otherwise a torn tail, or a
   journal with nothing live left, is cut back. Returns what it did. *)
let settle_journal ~io ~excise ~epoch path j =
  if j.ahead <> [] || (excise && (j.stale <> [] || j.mid <> [])) then
    let* () = rewrite_journal ~io path ~epoch j.live in
    let other = List.length j.stale + List.length j.ahead in
    Ok
      ((if other > 0 then
          [
            Printf.sprintf "journal.log: dropped %d frame(s) from other epochs"
              other;
          ]
        else [])
      @
      if j.mid <> [] then
        [
          Printf.sprintf
            "journal.log: excised %d quarantined damaged region(s) (%d byte(s))"
            (List.length j.mid) (damage_bytes j.mid);
        ]
      else [])
  else
    let cut =
      if j.live = [] && j.mid = [] && (j.stale <> [] || j.torn <> None) then
        Some 0
      else Option.map (fun d -> d.Journal.d_offset) j.torn
    in
    match cut with
    | Some len when j.size > len ->
      let* () = Journal.truncate ~io ~len path in
      Ok
        [
          Printf.sprintf "journal.log: truncated %d torn byte(s) off the tail"
            (j.size - len);
        ]
    | _ -> Ok []

(* Builds the commit daemon over [log]. Its write callback is the only
   code path that appends to the journal; transient write errors are
   retried there. A failed attempt is cut back off the journal before
   the retry (see {!Journal.append}). *)
let make_daemon ~sync ~sleep ~path log =
  let write frames =
    match log.journal with
    | None -> fail (Io_error ("store closed: " ^ path))
    | Some j ->
      let* () = Retry.with_retry ?sleep (fun () -> Journal.append j frames) in
      log.records <-
        List.fold_left (fun n f -> n + Journal.frame_records f) log.records frames;
      Ok ()
  in
  Commit_daemon.create sync write

let open_dir ?(io = Io.real) ?(sync = `Flush_only) ?sleep dir =
  let retried = ref 0 in
  let count_retry () = incr retried in
  let* () = ensure_dir dir in
  let* () = refuse_legacy_files dir in
  let r =
    resolve (fun gen ->
        read_snapshot ~io ~sleep ~count_retry (slot_path dir gen))
  in
  let* () =
    (* open refuses a store with nothing intact to stand on rather than
       silently hide the damage; fsck --repair quarantines it *)
    match (r.found, r.damaged) with
    | None, (_, e) :: _ -> Error e
    | _ -> Ok ()
  in
  let* _ = settle_snapshot ~io dir r in
  let* _ = sweep_tmp ~io dir in
  let snap_epoch = resolved_epoch r in
  let jpath = journal_path dir in
  let scan_with_retry () =
    Retry.with_retry ?sleep
      ~on_retry:(fun ~attempt:_ _ -> count_retry ())
      (fun () -> Journal.scan ~io jpath)
  in
  let* scanned = scan_with_retry () in
  let* scanned =
    (* read-repair double check: damage may live in the read path (a
       flipped bit on the wire, a short read), not on the medium — only
       damage that survives a second read is trusted, so a transient
       fault never truncates or quarantines committed records *)
    if scanned.Journal.scan_damage = [] then Ok scanned
    else begin
      count_retry ();
      scan_with_retry ()
    end
  in
  let j = classify ~snap_epoch scanned in
  let* () =
    (* frames ahead of the snapshot they were appended under: after a
       fallback to an older generation they are unreplayable leftovers,
       but ahead of the newest snapshot they mean it is missing *)
    match j.ahead with
    | f :: _ when resolved_generation r = None ->
      fail
        (Corrupt
           (Printf.sprintf
              "journal %s: frame at offset %d has epoch %d ahead of snapshot \
               epoch %d — the snapshot it depends on is missing (run fsck)"
              jpath f.Journal.f_offset f.Journal.f_epoch snap_epoch))
    | _ -> Ok ()
  in
  (* quarantined mid-file regions stay in place: fsck --repair excises *)
  let* _ = settle_journal ~io ~excise:false ~epoch:snap_epoch jpath j in
  let* journal = Journal.open_ ~io ~sync ~epoch:snap_epoch jpath in
  let records_replayed = record_count j.live in
  let log = { journal = Some journal; records = records_replayed } in
  Ok
    ( {
        dir;
        io;
        sync_policy = sync;
        sleep;
        epoch = snap_epoch;
        log;
        daemon = make_daemon ~sync ~sleep ~path:jpath log;
      },
      Option.map (fun (_, (_, payload)) -> payload) r.found,
      List.concat_map (fun f -> f.Journal.f_records) j.live,
      {
        records_replayed;
        bytes_dropped = torn_bytes j + frame_bytes j.stale + frame_bytes j.ahead;
        torn_tail = Option.map (fun d -> d.Journal.d_reason) j.torn;
        quarantined = j.mid;
        ahead_dropped = record_count j.ahead;
        stale_journal = j.stale <> [];
        snapshot_generation = resolved_generation r;
        io_retries = !retried;
        epoch = snap_epoch;
      } )

(* ------------------------------------------------------------------ *)
(* Writes                                                               *)
(* ------------------------------------------------------------------ *)

let append t records =
  match records with
  | [] -> Ok ()
  | _ -> Commit_daemon.submit t.daemon (Journal.frame ~epoch:t.epoch records)

let append_frame t w = Commit_daemon.submit t.daemon (Journal.seal w ~epoch:t.epoch)

let with_retry t f = Retry.with_retry ?sleep:t.sleep f

(* The daemon is paused around compaction's journal swap:
   [Commit_daemon.pause] waits out the in-flight batch, so the journal
   is quiescent while we hold it. *)
let quiesced t f =
  Commit_daemon.pause t.daemon;
  Fun.protect ~finally:(fun () -> Commit_daemon.resume t.daemon) f

let write_stats t = Commit_daemon.stats t.daemon

(* ------------------------------------------------------------------ *)
(* Compaction                                                           *)
(* ------------------------------------------------------------------ *)

let close_journal t =
  match t.log.journal with
  | None -> ()
  | Some j ->
    t.log.journal <- None;
    Journal.close j

let reopen_journal t ~epoch =
  match t.log.journal with
  | Some _ -> Ok ()
  | None ->
    let* j =
      Journal.open_ ~io:t.io ~sync:t.sync_policy ~epoch (journal_path t.dir)
    in
    t.log.journal <- Some j;
    Ok ()

(* Shifts the generation slots up one (the oldest drops) and retires
   [snapshot.bin] into slot 1. Every operation is existence-guarded, so
   a store without a snapshot pays nothing. Says whether a snapshot was
   retired. *)
let retire_snapshot t =
  wrap_io (fun () ->
      let io = t.io in
      let last = generation_path t.dir generations in
      if io.Io.exists last then io.Io.unlink last;
      for k = generations - 1 downto 1 do
        let src = generation_path t.dir k in
        if io.Io.exists src then
          io.Io.rename src (generation_path t.dir (k + 1))
      done;
      let snap = snapshot_path t.dir in
      io.Io.exists snap
      && begin
           io.Io.rename snap (generation_path t.dir 1);
           true
         end)

let compact_quiesced t ~snapshot =
  close_journal t;
  let next = t.epoch + 1 in
  let io = t.io in
  let snap = snapshot_path t.dir in
  let written =
    let* retired = retire_snapshot t in
    (* write the new snapshot under the next epoch (tmp file, fsync,
       rename, directory fsync — all inside Snapshot_file); until it
       lands, recovery stands on generation 1 and its same-epoch
       journal *)
    match
      with_retry t (fun () -> Snapshot_file.write ~io snap ~epoch:next snapshot)
    with
    | Ok () -> Ok ()
    | Error e ->
      (* the new snapshot never landed: put the retired one back, so the
         store stays on its pre-compaction state *)
      (try
         if retired && not (io.Io.exists snap) then
           io.Io.rename (generation_path t.dir 1) snap
       with Sys_error _ | Unix.Unix_error _ -> ());
      Error e
  in
  match written with
  | Error e ->
    let* () = reopen_journal t ~epoch:t.epoch in
    Error e
  | Ok () ->
    (* the new snapshot is durable: the store is at [next] from here on,
       even if the truncation below fails — recovery skips the now-stale
       journal by epoch mismatch *)
    t.epoch <- next;
    t.log.records <- 0;
    let truncated = Journal.truncate ~io (journal_path t.dir) in
    let* () = reopen_journal t ~epoch:next in
    truncated

let compact t ~snapshot = quiesced t (fun () -> compact_quiesced t ~snapshot)

let journal_size t = t.log.records

let close t = close_journal t

(* ------------------------------------------------------------------ *)
(* Offline checking                                                     *)
(* ------------------------------------------------------------------ *)

type file_status =
  | Absent
  | Intact of { epoch : int; bytes : int }
  | Damaged of string

type fsck_report = {
  fsck_snapshot : file_status;
  fsck_generations : (int * file_status) list;
  fsck_tmp_leftover : bool;
  fsck_journal_frames : int;
  fsck_journal_epoch : int option;
  fsck_torn_bytes : int;
  fsck_torn_reason : string option;
  fsck_quarantined_regions : int;
  fsck_quarantined_bytes : int;
  fsck_stale_journal : bool;
  fsck_journal_ahead : bool;
  fsck_healthy : bool;
  fsck_repairs : string list;
}

let file_status = function
  | Ok None -> Absent
  | Ok (Some (epoch, payload)) ->
    Intact { epoch; bytes = payload.Snapshot_file.len }
  | Error (Corrupt m) -> Damaged m
  | Error e -> Damaged (Seed_error.to_string e)

let journal_healthy r =
  r.fsck_torn_bytes = 0 && r.fsck_quarantined_regions = 0
  && (not r.fsck_stale_journal) && (not r.fsck_journal_ahead)

(* Reads every file of the chain (fsck reports each) and the journal,
   and runs them through the same resolver and classification as
   {!open_dir}. Returns the report with what repair acts on. *)
let analyze ~io dir =
  let* () = ensure_dir dir in
  let* () = refuse_legacy_files dir in
  let* reads =
    map_result
      (fun gen ->
        match
          read_snapshot ~io ~sleep:None ~count_retry:ignore (slot_path dir gen)
        with
        | (Ok _ | Error (Corrupt _)) as read -> Ok (gen, read)
        | Error e -> Error e)
      chain
  in
  let r = resolve (fun gen -> List.assoc gen reads) in
  let* scanned = Journal.scan ~io (journal_path dir) in
  let j = classify ~snap_epoch:(resolved_epoch r) scanned in
  let statuses = List.map (fun (gen, read) -> (gen, file_status read)) reads in
  let tmp = io.Io.exists (tmp_path dir) in
  let report =
    {
      fsck_snapshot = List.assoc None statuses;
      fsck_generations =
        List.filter_map
          (function
            | Some k, (Intact _ | Damaged _ as st) -> Some (k, st)
            | _ -> None)
          statuses;
      fsck_tmp_leftover = tmp;
      fsck_journal_frames = record_count j.live;
      fsck_journal_epoch =
        (match scanned.Journal.frames with
        | f :: _ -> Some f.Journal.f_epoch
        | [] -> None);
      fsck_torn_bytes = torn_bytes j;
      fsck_torn_reason = Option.map (fun d -> d.Journal.d_reason) j.torn;
      fsck_quarantined_regions = List.length j.mid;
      fsck_quarantined_bytes = damage_bytes j.mid;
      fsck_stale_journal = j.stale <> [];
      fsck_journal_ahead = j.ahead <> [];
      fsck_healthy = false;
      fsck_repairs = [];
    }
  in
  let healthy =
    (* healthy is what open recovers cleanly from, with nothing damaged
       or left over anywhere *)
    resolved_generation r = None
    && List.for_all (function _, Damaged _ -> false | _ -> true) statuses
    && (not tmp) && journal_healthy report
  in
  Ok ({ report with fsck_healthy = healthy }, r, j)

(* The same settling steps as {!open_dir}, with repair's two policy
   choices: a damaged primary with nothing behind it is quarantined
   rather than refused, and the journal's quarantined regions and the
   damaged generations are dropped rather than left in place. *)
let repair_store ~io dir report r j =
  let* tmp = sweep_tmp ~io dir in
  let* snap = settle_snapshot ~io dir r in
  let* gens =
    map_result
      (fun (k, st) ->
        match st with
        | Damaged _ ->
          wrap_io (fun () ->
              io.Io.unlink (generation_path dir k);
              [ Printf.sprintf "removed damaged snapshot generation %d" k ])
        | _ -> Ok [])
      report.fsck_generations
  in
  let* journal =
    settle_journal ~io ~excise:true ~epoch:(resolved_epoch r)
      (journal_path dir) j
  in
  Ok (tmp @ snap @ List.concat gens @ journal)

let fsck ?(io = Io.real) ?(repair = false) dir =
  let* report, r, j = analyze ~io dir in
  if (not repair) || report.fsck_healthy then Ok report
  else
    let* actions = repair_store ~io dir report r j in
    let* after, _, _ = analyze ~io dir in
    Ok { after with fsck_repairs = actions }

let pp_file_status ppf = function
  | Absent -> Fmt.pf ppf "absent"
  | Intact { epoch; bytes } -> Fmt.pf ppf "intact (epoch %d, %d bytes)" epoch bytes
  | Damaged m -> Fmt.pf ppf "DAMAGED: %s" m

let pp_fsck_report ppf r =
  Fmt.pf ppf "snapshot.bin:      %a@." pp_file_status r.fsck_snapshot;
  List.iter
    (fun (k, st) ->
      Fmt.pf ppf "snapshot.bin.%d:    %a (generation)@." k pp_file_status st)
    r.fsck_generations;
  if r.fsck_tmp_leftover then
    Fmt.pf ppf "snapshot.bin.tmp:  present (leftover of an interrupted write)@.";
  Fmt.pf ppf "journal.log:       %d live record(s)%s%s@."
    r.fsck_journal_frames
    (match r.fsck_journal_epoch with
    | Some e -> Printf.sprintf ", epoch %d" e
    | None -> ", empty")
    (if journal_healthy r then "" else " — NEEDS ATTENTION");
  if r.fsck_stale_journal then
    Fmt.pf ppf "stale journal:     records predating the snapshot's epoch \
                (skipped on open)@.";
  if r.fsck_quarantined_regions > 0 then
    Fmt.pf ppf
      "quarantined:       %d damaged region(s), %d byte(s) (skipped on open, \
       excised by --repair)@."
      r.fsck_quarantined_regions r.fsck_quarantined_bytes;
  if r.fsck_torn_bytes > 0 then
    Fmt.pf ppf "torn tail:         %d byte(s) — %s@." r.fsck_torn_bytes
      (Option.value r.fsck_torn_reason ~default:"damaged");
  List.iter (fun a -> Fmt.pf ppf "repaired:          %s@." a) r.fsck_repairs;
  Fmt.pf ppf "status:            %s@."
    (if r.fsck_healthy then "healthy" else "NEEDS ATTENTION")
