(** Append-only journal with CRC-framed, epoch-tagged records.

    Record frame layout (little-endian):
    [magic u32 | epoch u32 | payload length u32 | crc32(payload) u32 | payload].

    The {e epoch} is the compaction epoch the record belongs to: a store
    bumps it on every successful compaction and tags the snapshot header
    with the same number, so a stale journal left behind by a crash
    mid-compaction is detected by epoch mismatch and skipped rather than
    replayed (see {!Store}).

    Recovery reads frames until end of file. Damage (partial frame, bad
    magic, CRC mismatch) does not stop the scan: the reader records the
    damaged region, hunts forward for the next offset where a whole
    valid frame parses (magic + CRC resync), and continues — corrupt
    mid-file frames are {e quarantined}, not fatal. Damage that reaches
    end of file is the classic torn tail, truncatable as before.

    {e Transaction groups.} {!append_group} brackets a batch of records
    between a begin marker and a commit marker (control frames under a
    distinct magic, same CRC'd envelope). The commit marker carries the
    record count and a CRC over the concatenated payloads, so recovery
    ({!resolve_groups}) replays a group only when all of it — including
    the commit — made it to disk; a crash mid-group durably persists
    {e none} of it. A {e single}-record group skips the markers entirely
    (a bare frame is already its own committed transaction). Bare data
    frames (old journals, single appends) remain individually committed,
    so pre-group journals replay unchanged. Begin and Commit carry a
    per-journal transaction counter that pairs them; it restarts at
    every open. *)

type t
(** An open journal, positioned for appending. *)

val magic : int32

val control_magic : int32
(** Frame magic of transaction begin/commit markers. *)

type sync_policy = [ `Always_fsync | `Flush_only | `None ]
(** Durability of {!append}:
    - [`Always_fsync] — every append is written and fsync'd before
      returning; an acknowledged record survives any crash.
    - [`Flush_only] — every append is written to the OS before
      returning; it survives a process crash but not a power failure
      before the next {!sync}.
    - [`None] — appends accumulate in memory until {!sync} or {!close};
      fastest, loses unsynced records even on a clean process crash. *)

val open_ :
  ?io:Io.t -> ?sync:sync_policy -> ?epoch:int -> string ->
  (t, Seed_util.Seed_error.t) result
(** Opens (creating if necessary) the journal at [path] for appending.
    Records are tagged with [epoch] (default 0); durability of appends
    follows [sync] (default [`Flush_only]). *)

val append : t -> string -> (unit, Seed_util.Seed_error.t) result
(** Appends one record, with the durability of the journal's
    {!sync_policy}. A bare record is its own committed transaction. *)

val append_group : t -> string list -> (unit, Seed_util.Seed_error.t) result
(** Appends the records as one atomic transaction group —
    [begin marker; records…; commit marker] — in a single write (and,
    under [`Always_fsync], a single fsync), so recovery sees either all
    of them or none. An empty list is a no-op; a singleton list is
    appended as a bare frame (same atomicity, no marker overhead). *)

type entry =
  | Bare of string  (** one record, individually committed *)
  | Group of string list
      (** an all-or-nothing multi-record group under Begin/Commit
          markers *)

val append_entries : t -> entry list -> (unit, Seed_util.Seed_error.t) result
(** Appends a batch of independent transactions in {e one} physical
    write (and, under [`Always_fsync], one fsync) — the group-commit
    coalescing primitive used by {!Commit_daemon}. Each entry keeps its
    own atomicity: a crash mid-batch leaves every entry either whole or
    invisible to recovery. *)

val sync : t -> (unit, Seed_util.Seed_error.t) result
(** Writes any buffered records and fsyncs the journal file. *)

val close : t -> unit
(** Best-effort: buffered records are written if possible, then the
    descriptor is released. Errors are swallowed — call {!sync} first
    when durability matters. *)

val path : t -> string
val epoch : t -> int
val sync_policy : t -> sync_policy

(** {2 Recovery-side reads} *)

type kind =
  | Data  (** an ordinary record *)
  | Begin of { txn : int }  (** opens a transaction group *)
  | Commit of { txn : int; count : int; crc : int32 }
      (** closes a group: [count] records, [crc] over their
          concatenated payloads *)

type frame = {
  f_epoch : int;  (** compaction epoch the record was appended under *)
  f_payload : string;
  f_offset : int;  (** byte offset of the frame's header in the file *)
  f_kind : kind;
}

type damage = {
  d_offset : int;  (** where the damaged region starts *)
  d_end : int;
      (** where scanning resynchronized (equals the file size when no
          later frame boundary was found — a torn tail) *)
  d_reason : string;  (** e.g. ["truncated payload"], ["crc mismatch"] *)
}

type scan_result = {
  frames : frame list;  (** intact frames, in append order *)
  scan_damage : damage list;
      (** damaged regions, in file order; [[]] when the file is intact *)
  file_size : int;
}

val scan : ?io:Io.t -> string -> (scan_result, Seed_util.Seed_error.t) result
(** Reads every intact frame of the journal at [path], skipping over
    damaged regions by magic/CRC resynchronization. A missing file
    yields an empty, undamaged result. Only I/O failures are errors —
    damage is data, reported in the result. *)

val tail_damage : scan_result -> damage option
(** The damaged region reaching end of file, if any — a torn tail that
    can be repaired by truncating at its [d_offset]. *)

val quarantined : scan_result -> damage list
(** Mid-file damaged regions (everything but the {!tail_damage}):
    skipped during replay and left in place, pending {!Store.fsck}
    [~repair] rewriting the journal. *)

type groups = {
  g_units : frame list list;
      (** committed transactions in append order, each its data frames
          (a bare record is a one-frame transaction) *)
  g_committed : frame list;
      (** data frames safe to replay, in append order: bare records plus
          the records of every properly committed group (the
          concatenation of [g_units]) *)
  g_dropped_records : int;
      (** data records discarded because their group never committed (or
          its commit marker's count/CRC did not match) *)
  g_tail_records : int;
      (** of the dropped records, how many sit in an unterminated group
          at the very end of the frame list *)
  g_tail_begin : int option;
      (** offset of that unterminated tail group's begin marker — the
          natural truncation point *)
}

val resolve_groups : ?damage:damage list -> frame list -> groups
(** Resolves transaction groups over {!scan}'s intact frames. A
    [damage] region falling inside an open group is a barrier: the
    group's records before it are dropped, and the frames after it are
    decided by the next marker — a [Commit] drops them too (the group
    ran past the damage, so a record is missing), while a [Begin] or
    the end of the journal replays them as independent
    appends (the damage ate the commit marker, not a record). *)

val read_all : string -> (string list, Seed_util.Seed_error.t) result
(** Committed payloads of {!scan}'s intact prefix, epoch-agnostic.
    Records of uncommitted groups are not returned. *)

val read_all_strict : string -> (string list, Seed_util.Seed_error.t) result
(** Like {!read_all} but any malformed byte — including a torn tail —
    is an error. Used by tests. *)

val truncate :
  ?io:Io.t -> ?len:int -> string -> (unit, Seed_util.Seed_error.t) result
(** Cuts the journal at [path] to [len] bytes (default 0, creating the
    file if missing), then fsyncs the file and its directory so the cut
    — and with it, compaction — is durable before the caller proceeds. *)
