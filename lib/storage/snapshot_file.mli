(** Atomic whole-file snapshots, tagged with a compaction epoch.

    A snapshot is written to a temporary file in the same directory,
    fsync'd, renamed over the target, and the directory is fsync'd — so
    a crash mid-write never leaves a half-written snapshot behind, and a
    crash just after the rename cannot lose it either. A failed write
    unlinks the temporary file instead of leaving it around. The payload
    is framed with a magic, the epoch, and a CRC so {!read}
    can detect corruption and {!Store} can match the snapshot against
    the journal's epoch. *)

val write :
  ?io:Io.t -> string -> epoch:int -> string ->
  (unit, Seed_util.Seed_error.t) result
(** [write path ~epoch payload] atomically replaces [path]. *)

type payload = { file : string; pos : int; len : int }
(** A snapshot's payload in place: the [len] bytes at [pos] of [file],
    the file's contents as {!read} read them, so an open holds the file
    once. *)

val read :
  ?io:Io.t -> string -> ((int * payload) option, Seed_util.Seed_error.t) result
(** [read path] is [None] when no snapshot exists,
    [Some (epoch, payload)] when an intact one does, and [Corrupt]
    otherwise. The CRC is checked in place. Reads go through [io] so
    read faults are injectable. *)
