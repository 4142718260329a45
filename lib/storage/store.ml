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
  retry : Retry.policy;
  sleep : (float -> unit) option;
  generations : int;
  mutable epoch : int;
  log : log;
  daemon : Commit_daemon.t;  (* owns every physical append to [log] *)
  retried : int Atomic.t;
  active : int Atomic.t;  (* writers currently inside append *)
}

let snapshot_path dir = Filename.concat dir "snapshot.bin"
let fallback_path dir = Filename.concat dir "snapshot.bin.old"
let tmp_path dir = Filename.concat dir "snapshot.bin.tmp"
let quarantine_path dir = Filename.concat dir "snapshot.bin.corrupt"
let journal_path dir = Filename.concat dir "journal.log"
let generation_path dir k = Printf.sprintf "%s.%d" (snapshot_path dir) k

let default_generations = 2

(* generation slots are probed, not configured, on the read side: a
   store reopened with a smaller [generations] must still see (and fsck
   must still clean) the slots an earlier configuration left behind *)
let max_generation_probe = 9

let wrap_io = Seed_error.wrap_io

let ensure_dir dir =
  wrap_io (fun () ->
      if Sys.file_exists dir then begin
        if not (Sys.is_directory dir) then
          raise (Sys_error (dir ^ " exists and is not a directory"))
      end
      else Unix.mkdir dir 0o755)

(* Earlier releases could spread the journal over [journal.pK] files
   whose records only a sequence-tag merge puts back in order. This
   version replays [journal.log] alone, so it refuses such a directory
   rather than silently leave committed records out. *)
let refuse_partition_files dir =
  let is_partition f =
    let n = String.length f in
    n > 9
    && String.starts_with ~prefix:"journal.p" f
    && String.for_all
         (function '0' .. '9' -> true | _ -> false)
         (String.sub f 9 (n - 9))
  in
  let* names = wrap_io (fun () -> Sys.readdir dir) in
  match List.sort compare (List.filter is_partition (Array.to_list names)) with
  | [] -> Ok ()
  | f :: _ ->
    fail
      (Invalid_operation
         (Printf.sprintf
            "%s: journal partition files are not supported; this store was \
             written by a release with partitioned journals — compact it \
             there and remove its journal.pK files"
            (Filename.concat dir f)))

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
  used_fallback : bool;
  snapshot_generation : int option;
  io_retries : int;
  epoch : int;
}

let recovery_clean r =
  r.bytes_dropped = 0
  && (not r.stale_journal)
  && (not r.used_fallback)
  && r.quarantined = [] && r.ahead_dropped = 0
  && r.snapshot_generation = None

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
          (List.length ds)
          (List.fold_left
             (fun acc d -> acc + (d.Journal.d_end - d.Journal.d_offset))
             0 ds))
      (if r.ahead_dropped > 0 then
         Printf.sprintf
           ", %d record(s) ahead of the recovered snapshot discarded"
           r.ahead_dropped
       else "")
      (if r.stale_journal then ", stale journal skipped" else "")
      (match (r.used_fallback, r.snapshot_generation) with
      | _, Some g ->
        Printf.sprintf ", recovered from snapshot generation %d" g
      | true, None -> ", recovered from snapshot fallback"
      | false, None -> "")
      (if r.io_retries > 0 then
         Printf.sprintf ", %d transient i/o retr%s" r.io_retries
           (if r.io_retries = 1 then "y" else "ies")
       else "")

type snapshot_source = Src_primary | Src_fallback | Src_generation of int

(* Loads the newest readable snapshot, walking primary -> compaction
   fallback -> generations 1..N. Transient read errors are retried per
   [retry]; a Corrupt result is re-read once (the corruption may live in
   the transport, not the medium) before falling back a generation. *)
let load_snapshot ~io ~retry ~sleep ~count_retry dir =
  let read_one path =
    let corrupt_retried = ref false in
    Retry.with_retry ~policy:retry ?sleep
      ~should_retry:(function
        | Io_transient _ -> true
        | Corrupt _ when not !corrupt_retried ->
          corrupt_retried := true;
          true
        | _ -> false)
      ~on_retry:(fun ~attempt:_ _ -> count_retry ())
      (fun () -> Snapshot_file.read ~io path)
  in
  let candidates =
    (snapshot_path dir, Src_primary)
    :: (fallback_path dir, Src_fallback)
    :: List.init max_generation_probe (fun i ->
           (generation_path dir (i + 1), Src_generation (i + 1)))
  in
  let primary_damaged = ref false in
  let rec walk first_err = function
    | [] -> (
      (* nothing readable anywhere: absent store, or surface the first
         damage rather than silently hiding data *)
      match first_err with None -> Ok None | Some e -> Error e)
    | (path, src) :: rest -> (
      match read_one path with
      | Ok (Some sp) -> Ok (Some (sp, src))
      | Ok None -> walk first_err rest
      | Error e ->
        if src = Src_primary then primary_damaged := true;
        walk (if first_err = None then Some e else first_err) rest)
  in
  let* found = walk None candidates in
  match found with
  | None -> Ok (None, Src_primary, false)
  | Some (sp, src) -> Ok (Some sp, src, !primary_damaged)

let record_count frames =
  List.fold_left (fun n f -> n + List.length f.Journal.f_records) 0 frames

(* Where the journal's torn tail starts — the file size when there is
   none. *)
let intact_end (s : Journal.scan_result) =
  match Journal.tail_damage s with
  | Some d -> d.Journal.d_offset
  | None -> s.Journal.file_size

(* Sorts the scanned journal against the snapshot's epoch: which
   transactions to replay, how many bytes are dead (torn tail, stale or
   ahead frames), and whether the file should be cut back on open.
   [allow_ahead] is set when recovery fell back to an older snapshot:
   frames of a newer epoch are then unreplayable leftovers to drop (and
   report), not corruption. *)
let classify ~snap_epoch ~allow_ahead ~path (s : Journal.scan_result) =
  let ahead, rest =
    List.partition (fun f -> f.Journal.f_epoch > snap_epoch) s.Journal.frames
  in
  match ahead with
  | f :: _ when not allow_ahead ->
    fail
      (Corrupt
         (Printf.sprintf
            "journal %s: frame at offset %d has epoch %d ahead of snapshot \
             epoch %d — the snapshot it depends on is missing (run fsck)"
            path f.Journal.f_offset f.Journal.f_epoch snap_epoch))
  | _ ->
    let live, stale =
      List.partition (fun f -> f.Journal.f_epoch = snap_epoch) rest
    in
    let quarantined = Journal.quarantined s in
    let prefix_end = intact_end s in
    let dead_tail_bytes = s.Journal.file_size - prefix_end in
    let frame_bytes fs =
      List.fold_left (fun acc f -> acc + f.Journal.f_bytes) 0 fs
    in
    let truncate_to =
      if
        live = [] && quarantined = [] && ahead = []
        && (stale <> [] || dead_tail_bytes > 0)
      then Some 0
      else if dead_tail_bytes > 0 then Some prefix_end
      else None
    in
    Ok
      ( live,
        {
          records_replayed = record_count live;
          bytes_dropped = dead_tail_bytes + frame_bytes stale + frame_bytes ahead;
          torn_tail =
            Option.map
              (fun d -> d.Journal.d_reason)
              (Journal.tail_damage s);
          quarantined;
          ahead_dropped = record_count ahead;
          stale_journal = stale <> [];
          used_fallback = false;
          snapshot_generation = None;
          io_retries = 0;
          epoch = snap_epoch;
        },
        truncate_to )

(* Rewrites the journal to contain exactly the transactions [frames],
   under [epoch]. Used to drop a stale prefix, quarantined regions, or
   epoch-ahead leftovers while keeping the intact transactions. *)
let rewrite_journal ~io path ~epoch frames =
  let* () = Journal.truncate ~io path in
  let* j = Journal.open_ ~io ~sync:`Flush_only ~epoch path in
  let* () = Journal.append j (List.map (fun f -> f.Journal.f_records) frames) in
  let* () = Journal.sync j in
  Journal.close j;
  Ok ()

(* Builds the commit daemon over [log]. Its write callback is the only
   code path that appends to the journal; transient write errors are
   retried there. Re-appending a batch whose first attempt half-landed
   is safe: the scanner quarantines the torn bytes and resynchronizes on
   the retried frames' headers. *)
let make_daemon ~sync ~retry ~sleep ~retried ~active ~path log =
  let write txns =
    match log.journal with
    | None -> fail (Io_error ("store closed: " ^ path))
    | Some j ->
      let* () =
        Retry.with_retry ~policy:retry ?sleep
          ~on_retry:(fun ~attempt:_ _ -> Atomic.incr retried)
          (fun () -> Journal.append j txns)
      in
      log.records <-
        List.fold_left (fun n txn -> n + List.length txn) log.records txns;
      Ok ()
  in
  (* The commit window only pays off when the physical write is
     dominated by an fsync worth amortizing; leave it off for buffered
     policies where writes are near-free. The nap request is tiny
     because the OS floor rounds it up to tens of microseconds — about
     half an fsync — which is the hold we actually want. *)
  let coalesce = if sync = `Always_fsync then 1e-5 else 0. in
  Commit_daemon.create ~coalesce
    ~siblings:(fun () -> Atomic.get active)
    ~counts_fsync:(sync = `Always_fsync) write

let open_dir ?(io = Io.real) ?(sync = `Flush_only)
    ?(generations = default_generations) ?(retry = Retry.default_policy) ?sleep
    dir =
  let retried = Atomic.make 0 in
  let count_retry () = Atomic.incr retried in
  let* () = ensure_dir dir in
  let* () = refuse_partition_files dir in
  let* snap, source, primary_damaged =
    load_snapshot ~io ~retry ~sleep ~count_retry dir
  in
  let* () =
    (* set a damaged primary aside before promoting anything over it *)
    if primary_damaged && snap <> None then
      wrap_io (fun () ->
          io.Io.rename (snapshot_path dir) (quarantine_path dir))
    else Ok ()
  in
  let* () =
    (* normalize: promote the recovered copy so [snapshot.bin] is again
       the authoritative one (rename is atomic — a crash here is safe) *)
    match source with
    | Src_primary -> Ok ()
    | Src_fallback ->
      wrap_io (fun () ->
          io.Io.rename (fallback_path dir) (snapshot_path dir);
          io.Io.fsync_dir dir)
    | Src_generation k ->
      wrap_io (fun () ->
          io.Io.rename (generation_path dir k) (snapshot_path dir);
          io.Io.fsync_dir dir)
  in
  let* () =
    (* sweep compaction leftovers: an interrupted snapshot write leaves
       [snapshot.bin.tmp]; an interrupted cleanup leaves
       [snapshot.bin.old], which becomes generation 1 (it is the
       previous epoch's snapshot — exactly what the slot holds) *)
    wrap_io (fun () ->
        let dirty = ref false in
        if io.Io.exists (tmp_path dir) then begin
          io.Io.unlink (tmp_path dir);
          dirty := true
        end;
        if io.Io.exists (fallback_path dir) then begin
          if generations > 0 && not (io.Io.exists (generation_path dir 1))
          then io.Io.rename (fallback_path dir) (generation_path dir 1)
          else io.Io.unlink (fallback_path dir);
          dirty := true
        end;
        if !dirty then io.Io.fsync_dir dir)
  in
  let snap_epoch = match snap with Some (e, _) -> e | None -> 0 in
  let jpath = journal_path dir in
  let scan_with_retry () =
    Retry.with_retry ~policy:retry ?sleep
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
  let* live, report, truncate_to =
    classify ~snap_epoch ~allow_ahead:(source <> Src_primary) ~path:jpath
      scanned
  in
  let* () =
    if report.ahead_dropped > 0 then
      (* epoch-ahead leftovers must not linger: a future compaction
         would reuse their epoch and mistake them for live records *)
      rewrite_journal ~io jpath ~epoch:snap_epoch live
    else
      (* cut tail damage back so it does not persist into the next
         session; quarantined mid-file regions stay (fsck rewrites) *)
      match truncate_to with
      | Some len when scanned.Journal.file_size > len ->
        Journal.truncate ~io ~len jpath
      | _ -> Ok ()
  in
  let* journal = Journal.open_ ~io ~sync ~epoch:snap_epoch jpath in
  let log = { journal = Some journal; records = report.records_replayed } in
  let active = Atomic.make 0 in
  Ok
    ( {
        dir;
        io;
        sync_policy = sync;
        retry;
        sleep;
        generations;
        epoch = snap_epoch;
        log;
        daemon = make_daemon ~sync ~retry ~sleep ~retried ~active ~path:jpath log;
        retried;
        active;
      },
      Option.map snd snap,
      List.concat_map (fun f -> f.Journal.f_records) live,
      {
        report with
        used_fallback = source <> Src_primary;
        snapshot_generation =
          (match source with Src_generation k -> Some k | _ -> None);
        io_retries = Atomic.get retried;
      } )

(* ------------------------------------------------------------------ *)
(* Writes                                                               *)
(* ------------------------------------------------------------------ *)

(* The in-flight writer count feeds the daemon's commit window: a
   leader holds its drain while other writers are still between here
   and their own enqueue. *)
let append t records =
  match records with
  | [] -> Ok ()
  | _ ->
    Atomic.incr t.active;
    Fun.protect
      ~finally:(fun () -> Atomic.decr t.active)
      (fun () -> Commit_daemon.submit t.daemon records)

let with_retry t f =
  Retry.with_retry ~policy:t.retry ?sleep:t.sleep
    ~on_retry:(fun ~attempt:_ _ -> Atomic.incr t.retried)
    f

(* The daemon is paused around direct journal access (sync,
   compaction): [Commit_daemon.pause] waits out the in-flight batch, so
   the journal is quiescent while we hold it. *)
let quiesced t f =
  Commit_daemon.pause t.daemon;
  Fun.protect ~finally:(fun () -> Commit_daemon.resume t.daemon) f

let sync t =
  quiesced t (fun () ->
      match t.log.journal with
      | None -> fail (Io_error ("store closed: " ^ t.dir))
      | Some j -> with_retry t (fun () -> Journal.sync j))

let retries t = Atomic.get t.retried
let write_stats t = Commit_daemon.stats t.daemon

(* ------------------------------------------------------------------ *)
(* Compaction                                                           *)
(* ------------------------------------------------------------------ *)

(* Shifts snapshot generations up one slot (dropping the oldest) to free
   [snapshot.bin.1] for the snapshot being replaced. Every operation is
   existence-guarded, so a store without generations pays nothing. *)
let rotate_generations t =
  wrap_io (fun () ->
      let io = t.io in
      if t.generations > 0 then begin
        let last = generation_path t.dir t.generations in
        if io.Io.exists last then io.Io.unlink last;
        for k = t.generations - 1 downto 1 do
          let src = generation_path t.dir k in
          if io.Io.exists src then
            io.Io.rename src (generation_path t.dir (k + 1))
        done
      end)

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

let compact_quiesced t ~snapshot =
  close_journal t;
  let next = t.epoch + 1 in
  let io = t.io in
  let snap = snapshot_path t.dir and old = fallback_path t.dir in
  (* step 0: make room in generation slot 1 for the snapshot being
     replaced (the previous generations shift up, the oldest drops) *)
  match rotate_generations t with
  | Error e ->
    let* () = reopen_journal t ~epoch:t.epoch in
    Error e
  | Ok () -> (
    (* step 1: set the previous snapshot aside as the fallback *)
    match
      wrap_io (fun () -> if io.Io.exists snap then io.Io.rename snap old)
    with
    | Error e ->
      let* () = reopen_journal t ~epoch:t.epoch in
      Error e
    | Ok () -> (
      (* step 2: write the new snapshot under the next epoch (tmp file,
         fsync, rename, directory fsync — all inside Snapshot_file) *)
      match
        with_retry t (fun () ->
            Snapshot_file.write ~io snap ~epoch:next snapshot)
      with
      | Error e ->
        (* the new snapshot never landed: put the old one back *)
        (try
           if io.Io.exists old && not (io.Io.exists snap) then
             io.Io.rename old snap
         with Sys_error _ | Unix.Unix_error _ -> ());
        let* () = reopen_journal t ~epoch:t.epoch in
        Error e
      | Ok () ->
        (* the new snapshot is durable: the store is at [next] from here
           on, even if the housekeeping below fails — recovery skips the
           now-stale journal by epoch mismatch *)
        t.epoch <- next;
        let housekeeping =
          let* () = Journal.truncate ~io (journal_path t.dir) in
          wrap_io (fun () ->
              if io.Io.exists old then
                if
                  t.generations > 0
                  && not (io.Io.exists (generation_path t.dir 1))
                then begin
                  (* the replaced snapshot becomes generation 1 *)
                  io.Io.rename old (generation_path t.dir 1);
                  io.Io.fsync_dir t.dir
                end
                else io.Io.unlink old)
        in
        let* () = reopen_journal t ~epoch:next in
        t.log.records <- 0;
        housekeeping))

let compact t ~snapshot = quiesced t (fun () -> compact_quiesced t ~snapshot)

let journal_size t = t.log.records

let epoch (t : t) = t.epoch
let close t = close_journal t
let dir t = t.dir

(* ------------------------------------------------------------------ *)
(* Offline checking                                                     *)
(* ------------------------------------------------------------------ *)

type file_status =
  | Absent
  | Intact of { epoch : int; bytes : int }
  | Damaged of string

type fsck_report = {
  fsck_snapshot : file_status;
  fsck_fallback : file_status;
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

let status_of_snapshot ?io path =
  match Snapshot_file.read ?io path with
  | Ok None -> Ok Absent
  | Ok (Some (epoch, payload)) ->
    Ok (Intact { epoch; bytes = String.length payload })
  | Error (Corrupt m) -> Ok (Damaged m)
  | Error e -> Error e

(* The generation slots on disk, present ones only (slots can be sparse
   after an interrupted rotation). *)
let generation_statuses ?io dir =
  let exists =
    match io with Some i -> i.Io.exists | None -> Sys.file_exists
  in
  let rec go k acc =
    if k > max_generation_probe then Ok (List.rev acc)
    else
      let p = generation_path dir k in
      if not (exists p) then go (k + 1) acc
      else
        let* st = status_of_snapshot ?io p in
        go (k + 1) ((k, st) :: acc)
  in
  go 1 []

let journal_healthy r =
  r.fsck_torn_bytes = 0 && r.fsck_quarantined_regions = 0
  && (not r.fsck_stale_journal) && (not r.fsck_journal_ahead)

let analyze ?io dir =
  let* () = ensure_dir dir in
  let* () = refuse_partition_files dir in
  let* snapshot = status_of_snapshot ?io (snapshot_path dir) in
  let* fallback = status_of_snapshot ?io (fallback_path dir) in
  let* gens = generation_statuses ?io dir in
  let tmp = Sys.file_exists (tmp_path dir) in
  let snap_epoch =
    match (snapshot, fallback) with
    | Intact { epoch; _ }, _ -> Some epoch
    | _, Intact { epoch; _ } -> Some epoch
    | _ -> (
      match
        List.find_opt (fun (_, st) -> match st with Intact _ -> true | _ -> false) gens
      with
      | Some (_, Intact { epoch; _ }) -> Some epoch
      | _ -> None)
  in
  let reference = Option.value snap_epoch ~default:0 in
  let* scanned = Journal.scan ?io (journal_path dir) in
  let frames = scanned.Journal.frames in
  let live = List.filter (fun f -> f.Journal.f_epoch = reference) frames in
  let stale = List.exists (fun f -> f.Journal.f_epoch < reference) frames in
  let ahead = List.exists (fun f -> f.Journal.f_epoch > reference) frames in
  let quarantined = Journal.quarantined scanned in
  let prefix_end = intact_end scanned in
  let torn_bytes = scanned.Journal.file_size - prefix_end in
  let total_frames = record_count live in
  let gens_healthy =
    List.for_all
      (fun (_, st) -> match st with Intact _ -> true | _ -> false)
      gens
  in
  let report =
    {
      fsck_snapshot = snapshot;
      fsck_fallback = fallback;
      fsck_generations = gens;
      fsck_tmp_leftover = tmp;
      fsck_journal_frames = total_frames;
      fsck_journal_epoch =
        (match frames with f :: _ -> Some f.Journal.f_epoch | [] -> None);
      fsck_torn_bytes = torn_bytes;
      fsck_torn_reason =
        Option.map (fun d -> d.Journal.d_reason) (Journal.tail_damage scanned);
      fsck_quarantined_regions = List.length quarantined;
      fsck_quarantined_bytes =
        List.fold_left
          (fun acc d -> acc + (d.Journal.d_end - d.Journal.d_offset))
          0 quarantined;
      fsck_stale_journal = stale;
      fsck_journal_ahead = ahead;
      fsck_healthy = false;
      fsck_repairs = [];
    }
  in
  let healthy =
    (match snapshot with
    | Intact _ -> true
    | Absent -> total_frames = 0 || reference = 0
    | Damaged _ -> false)
    && (match fallback with Absent -> true | _ -> false)
    && gens_healthy && (not tmp) && journal_healthy report
  in
  Ok { report with fsck_healthy = healthy }

(* Repairs the journal against the (already repaired) snapshot's
   epoch: rewrites it when stale/ahead frames or quarantined damage are
   buried inside, otherwise truncates torn tail bytes. *)
let repair_journal ~io ~add ~reference dir =
  let act fmt = Printf.ksprintf add fmt in
  let jpath = journal_path dir in
  let jname = "journal.log" in
  let* scanned = Journal.scan ~io jpath in
  let frames = scanned.Journal.frames in
  let live = List.filter (fun f -> f.Journal.f_epoch = reference) frames in
  let quarantined = Journal.quarantined scanned in
  let prefix_end = intact_end scanned in
  let torn_bytes = scanned.Journal.file_size - prefix_end in
  if List.length live <> List.length frames || quarantined <> [] then begin
    (* stale or epoch-ahead frames, or quarantined damage — rewrite with
       exactly the intact transactions the current snapshot can base *)
    let* () = rewrite_journal ~io jpath ~epoch:reference live in
    let other_epochs = List.length frames - List.length live in
    if other_epochs > 0 then
      act "%s: dropped %d frame(s) from other epochs" jname other_epochs;
    if quarantined <> [] then
      act "%s: excised %d quarantined damaged region(s) (%d byte(s))" jname
        (List.length quarantined)
        (List.fold_left
           (fun acc d -> acc + (d.Journal.d_end - d.Journal.d_offset))
           0 quarantined);
    Ok ()
  end
  else if torn_bytes > 0 then begin
    let* () = Journal.truncate ~io ~len:prefix_end jpath in
    act "%s: truncated %d torn byte(s) off the tail" jname torn_bytes;
    Ok ()
  end
  else Ok ()

let repair_actions ~io dir report =
  let actions = ref [] in
  let act fmt = Printf.ksprintf (fun m -> actions := m :: !actions) fmt in
  let* () =
    if report.fsck_tmp_leftover then
      wrap_io (fun () ->
          io.Io.unlink (tmp_path dir);
          act "removed leftover snapshot.bin.tmp")
    else Ok ()
  in
  (* resolve the snapshot first; journal repairs depend on its epoch *)
  let newest_intact_generation =
    List.find_opt
      (fun (_, st) -> match st with Intact _ -> true | _ -> false)
      report.fsck_generations
  in
  let* () =
    match (report.fsck_snapshot, report.fsck_fallback) with
    | (Absent | Damaged _), Intact _ ->
      wrap_io (fun () ->
          (match report.fsck_snapshot with
          | Damaged _ ->
            io.Io.rename (snapshot_path dir) (quarantine_path dir);
            act "quarantined unreadable snapshot.bin as snapshot.bin.corrupt"
          | _ -> ());
          io.Io.rename (fallback_path dir) (snapshot_path dir);
          io.Io.fsync_dir dir;
          act "promoted snapshot.bin.old to snapshot.bin")
    | (Absent | Damaged _), (Absent | Damaged _)
      when newest_intact_generation <> None ->
      (* no primary or fallback to stand on: fall back a generation *)
      let k, _ = Option.get newest_intact_generation in
      wrap_io (fun () ->
          (match report.fsck_snapshot with
          | Damaged _ ->
            io.Io.rename (snapshot_path dir) (quarantine_path dir);
            act "quarantined unreadable snapshot.bin as snapshot.bin.corrupt"
          | _ -> ());
          io.Io.rename (generation_path dir k) (snapshot_path dir);
          io.Io.fsync_dir dir;
          act "promoted snapshot generation %d to snapshot.bin" k)
    | Damaged _, _ ->
      wrap_io (fun () ->
          io.Io.rename (snapshot_path dir) (quarantine_path dir);
          io.Io.fsync_dir dir;
          act
            "quarantined unreadable snapshot.bin as snapshot.bin.corrupt (no \
             usable fallback — its data is lost)")
    | _ -> Ok ()
  in
  let* () =
    (* whatever is still at snapshot.bin.old is redundant or damaged *)
    if Sys.file_exists (fallback_path dir) then
      wrap_io (fun () ->
          io.Io.unlink (fallback_path dir);
          act "removed leftover snapshot.bin.old")
    else Ok ()
  in
  let* () =
    (* a damaged generation can never be recovered from: drop it *)
    iter_result
      (fun (k, st) ->
        match st with
        | Damaged _ when Sys.file_exists (generation_path dir k) ->
          wrap_io (fun () ->
              io.Io.unlink (generation_path dir k);
              act "removed damaged snapshot generation %d" k)
        | _ -> Ok ())
      report.fsck_generations
  in
  (* re-read the (possibly repaired) snapshot, then fix the journal
     against its epoch *)
  let* snapshot = status_of_snapshot ~io (snapshot_path dir) in
  let reference =
    match snapshot with Intact { epoch; _ } -> epoch | _ -> 0
  in
  let* () =
    repair_journal ~io ~add:(fun m -> actions := m :: !actions) ~reference dir
  in
  Ok (List.rev !actions)

let fsck ?(io = Io.real) ?(repair = false) dir =
  let* report = analyze ~io dir in
  if (not repair) || report.fsck_healthy then Ok report
  else
    let* actions = repair_actions ~io dir report in
    let* after = analyze ~io dir in
    Ok { after with fsck_repairs = actions }

let pp_file_status ppf = function
  | Absent -> Fmt.pf ppf "absent"
  | Intact { epoch; bytes } -> Fmt.pf ppf "intact (epoch %d, %d bytes)" epoch bytes
  | Damaged m -> Fmt.pf ppf "DAMAGED: %s" m

let pp_fsck_report ppf r =
  Fmt.pf ppf "snapshot.bin:      %a@." pp_file_status r.fsck_snapshot;
  (match r.fsck_fallback with
  | Absent -> ()
  | s -> Fmt.pf ppf "snapshot.bin.old:  %a (leftover fallback)@." pp_file_status s);
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
