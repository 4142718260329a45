(** Deterministic fault injection over {!Io}.

    A [Faulty_io.t] wraps a base I/O environment (usually {!Io.real})
    and numbers every mutating operation — open, write, fsync, rename,
    unlink, truncate, directory fsync — with a global step counter.
    Faults are scheduled against those numbers, which makes every
    failure reproducible:

    - {b crash}: before executing step [n] the injector raises {!Crash},
      simulating the process dying at that syscall. With [~torn:true] a
      crash landing on a write first emits a prefix of the bytes, so the
      on-disk state shows a torn frame. After a crash every further
      operation except [close] raises {!Crash} again — a dead process
      issues no more I/O (closing is permitted so [Fun.protect]
      finalizers in the code under test do not mask the crash).
    - {b failure}: the k-th operation of a given kind raises a
      [Unix.Unix_error] (EIO for fsync/rename, ENOSPC for writes — the
      ENOSPC write also emits a short prefix first, as a full disk
      would). The process lives on and sees the error as an [Error _]
      result, exercising the error paths of the storage layer.

    Counting a faultless run first ({!steps}) tells a sweep how many
    crash points the lifecycle has.

    {b Read faults} live on a separate counter ({!reads}) so they never
    shift the global crash-step schedule: [transient_reads:n] makes the
    first [n] reads raise EINTR (the transient class the retry layer
    absorbs); [eio_read:k] fails the k-th read with EIO (permanent);
    [short_read:k] returns only a prefix of the file; [flip_read:k]
    flips one bit in the middle of the returned bytes. [lie_fsync]
    makes every fsync report success without flushing — the classic
    lying-disk fault. After a crash, reads raise {!Crash} like any
    other operation (a dead process does no I/O). *)

exception Crash of { step : int; op : string }
(** Raised in place of performing the scheduled operation. Never caught
    by the storage layer: it propagates to the test harness like a
    process abort would. *)

type t

val create :
  ?base:Io.t ->
  ?crash_at:int ->
  ?torn:bool ->
  ?fail_fsync:int ->
  ?fail_rename:int ->
  ?enospc_write:int ->
  ?transient_reads:int ->
  ?eio_read:int ->
  ?short_read:int ->
  ?flip_read:int ->
  ?lie_fsync:bool ->
  unit ->
  t
(** [create ()] counts operations without injecting anything.
    [crash_at:n] crashes at global step [n] (0-based); [torn] makes a
    crash on a write leave half the bytes behind. [fail_fsync:k] /
    [fail_rename:k] / [enospc_write:k] fail the k-th operation of that
    kind (0-based; fsync counts file and directory fsyncs together).
    Read faults ([transient_reads], [eio_read], [short_read],
    [flip_read]) are scheduled against the separate read counter;
    [lie_fsync] silently drops every fsync. *)

val io : t -> Io.t
(** The injecting environment, to pass to [Store.open_dir] etc. *)

val steps : t -> int
(** Operations attempted so far (including the one that crashed).
    Reads are not included — see {!reads}. *)

val reads : t -> int
(** Whole-file reads attempted so far (separate from {!steps}). *)
