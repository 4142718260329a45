(** Snapshot + journal composition: the persistence engine.

    A store lives in a directory holding [snapshot.bin] and
    [journal.log], plus [snapshot.bin.1] and [snapshot.bin.2] — the two
    snapshots most recently replaced, kept as {e generations} to fall
    back on — and, transiently, [snapshot.bin.tmp] while a new snapshot
    is being written. The client supplies a pure fold over its own
    state: opening a store loads the snapshot (if any) and replays the
    journal records appended since; {!append} adds a transaction's
    records; {!compact} writes a fresh snapshot and truncates the
    journal. All payloads are opaque strings — {!Seed_core.Persist} owns
    the encoding.

    {b Crash consistency.} Every compaction bumps a monotonically
    increasing {e epoch}, stamped on the snapshot header and on every
    journal frame. On open, a journal whose epoch predates the
    snapshot's is a leftover of a crash mid-compaction: its records are
    already folded into the snapshot, so it is skipped (and truncated)
    instead of replayed — correctness does not rest on replay being
    idempotent. Compaction shifts the generations up (the oldest drops),
    retires [snapshot.bin] into generation 1, writes the new snapshot
    durably, and only then truncates the journal. A crash before the new
    snapshot lands recovers from generation 1 plus its same-epoch
    journal; a crash after it, from the new snapshot with the stale
    journal skipped — so a crash at any point leaves an intact
    snapshot/journal pair, and media corruption of the newest snapshot
    still leaves the generations to fall back on.

    {b Self-healing recovery.} Transient I/O errors (EINTR class) are
    retried with bounded backoff ({!Seed_util.Retry}); journal damage
    found on open is re-read once before being trusted, so a flipped bit
    or short read on the wire never costs committed data. Real damage is
    handled by severity: a torn tail — a transaction cut short — is
    truncated, a corrupt mid-file region (a damaged transaction) is
    {e quarantined} — skipped by magic/CRC resynchronization,
    left in place for [fsck --repair] to excise — and an unreadable
    snapshot falls back generation by generation (the damaged primary is
    set aside as [snapshot.bin.corrupt]). {!open_dir} and {!fsck} settle
    the snapshot chain with one resolver and sort the journal with one
    classification; the {!recovery} report says what open found and
    did. *)

type t

type sync_policy = Journal.sync_policy
(** Durability of {!append}; see {!Journal.sync_policy}. *)

(** {2 Group-committed write path}

    Every append goes through one group-commit daemon
    ({!Commit_daemon}) over the one [journal.log]: transactions arriving
    concurrently coalesce into one physical write and one fsync, each
    transaction its own CRC'd frame and so all-or-nothing on recovery,
    and the journal order is the replay order. Earlier releases could
    spread the journal over [journal.pK] partition files, frame it
    differently, or leave a compaction's [snapshot.bin.old] behind;
    {!open_dir} and {!fsck} refuse such a store. *)

type recovery = {
  records_replayed : int;  (** journal records handed back to the client *)
  bytes_dropped : int;
      (** journal bytes discarded: a torn tail (a transaction cut
          short), a stale journal and/or epoch-ahead leftovers *)
  torn_tail : string option;
      (** why the journal's tail was cut, when it was *)
  quarantined : Journal.damage list;
      (** corrupt mid-journal regions — each a damaged transaction —
          skipped by resynchronization and left in place (fsck
          [--repair] excises them) *)
  ahead_dropped : int;
      (** records stamped with an epoch newer than the recovered
          snapshot — appended after a snapshot that was later lost —
          and therefore unreplayable *)
  stale_journal : bool;
      (** a whole journal predating the snapshot's epoch was skipped *)
  snapshot_generation : int option;
      (** the generation slot recovery fell back to, when the state did
          not come from [snapshot.bin] *)
  io_retries : int;
      (** transient I/O errors absorbed by retry during open *)
  epoch : int;  (** the store's compaction epoch after open *)
}

val recovery_clean : recovery -> bool
(** No bytes dropped or quarantined, no stale journal, no fallback used.
    Absorbed transient retries do not make a recovery unclean. *)

val pp_recovery : Format.formatter -> recovery -> unit

val open_dir :
  ?io:Io.t ->
  ?sync:sync_policy ->
  ?sleep:(float -> unit) ->
  string ->
  (t * Snapshot_file.payload option * string list * recovery, Seed_util.Seed_error.t)
  result
(** [open_dir dir] creates [dir] if needed and returns
    [(store, snapshot_payload, journal_records, recovery)] — everything
    needed to rebuild the client state, plus what recovery had to do to
    get there. [sync] (default [`Flush_only]) governs {!append};
    transient faults are retried with {!Seed_util.Retry.default_policy},
    pausing with [sleep] (default [Unix.sleepf]).
    A store with no intact snapshot to stand on (a damaged
    [snapshot.bin] and no intact generation) is refused; {!fsck}
    [~repair] quarantines it. A directory holding a [journal.pK]
    partition file or a [snapshot.bin.old], or a journal whose first
    frame carries an earlier release's magic, is refused with an
    [Invalid_operation] error naming the file. *)

val append : t -> string list -> (unit, Seed_util.Seed_error.t) result
(** Appends the records as one atomic transaction — one journal frame —
    with the store's {!sync_policy}, through the group-commit daemon
    (concurrent appends coalesce into shared fsyncs). Recovery replays
    either all of the records or none, never a prefix. An empty list is
    a no-op. Transient I/O errors are retried; a half-written first
    attempt is quarantined by the scanner and resynchronized over on
    recovery, so the retry cannot corrupt. *)

val append_frame : t -> Journal.writer -> (unit, Seed_util.Seed_error.t) result
(** {!append} of the transaction a {!Journal.writer} holds: its frame is
    sealed under the store's epoch and handed to the group-commit
    daemon as it is. *)

val write_stats : t -> Commit_daemon.stats
(** Group-commit counters: transactions submitted, physical batches,
    fsyncs, largest coalesced batch, queue high-water. *)

val compact : t -> snapshot:string -> (unit, Seed_util.Seed_error.t) result
(** Retires the previous snapshot into generation slot 1 (shifting
    older generations up and dropping the oldest), writes [snapshot]
    under the next epoch, and truncates the journal. If the snapshot
    write fails, the retired snapshot is put back: the store is left on
    its pre-compaction state and stays usable. A crash anywhere inside
    is recovered by {!open_dir} via the epoch check and generation
    1. *)

val journal_size : t -> int
(** Records appended since the last compaction (this process's view). *)

val close : t -> unit

(** {2 Offline checking} *)

type file_status =
  | Absent
  | Intact of { epoch : int; bytes : int }
  | Damaged of string

type fsck_report = {
  fsck_snapshot : file_status;
  fsck_generations : (int * file_status) list;
      (** generation slots present on disk ([snapshot.bin.k]) *)
  fsck_tmp_leftover : bool;  (** [snapshot.bin.tmp] exists *)
  fsck_journal_frames : int;
      (** records in the current epoch's intact transactions *)
  fsck_journal_epoch : int option;  (** epoch of the journal's frames *)
  fsck_torn_bytes : int;  (** bytes of damage reaching end of file *)
  fsck_torn_reason : string option;
  fsck_quarantined_regions : int;
      (** corrupt mid-journal regions (skipped on open, excised by
          [--repair]) *)
  fsck_quarantined_bytes : int;
  fsck_stale_journal : bool;  (** journal epoch predates the snapshot *)
  fsck_journal_ahead : bool;
      (** frames newer than the snapshot's epoch (their snapshot was
          lost) *)
  fsck_healthy : bool;
  fsck_repairs : string list;  (** actions taken (with [~repair:true]) *)
}

val fsck :
  ?io:Io.t -> ?repair:bool -> string ->
  (fsck_report, Seed_util.Seed_error.t) result
(** Reports the health of the store at [dir] without opening it for
    appending. Healthy means {!open_dir} would recover cleanly from
    [snapshot.bin] with nothing damaged or left over. With [repair], the
    store is settled by the same resolver and journal classification as
    {!open_dir}: an unreadable [snapshot.bin] is quarantined (as
    [snapshot.bin.corrupt]) and the newest intact generation promoted
    when there is one; a torn tail (a transaction cut short by a crash)
    is truncated; frames of other epochs and quarantined mid-file damage
    are rewritten away; a leftover [snapshot.bin.tmp] and damaged
    generations are removed — after which {!open_dir} succeeds. Like
    {!open_dir}, refuses a directory holding a [journal.pK] partition
    file, a [snapshot.bin.old], or an earlier release's journal. *)

val pp_fsck_report : Format.formatter -> fsck_report -> unit
