(** Pluggable I/O environment for the storage layer.

    Every filesystem operation the persistence engine performs —
    opening, writing, flushing, fsyncing, renaming, truncating,
    unlinking, syncing a directory, and whole-file reads — goes through
    a value of type {!t}. {!real} talks to the operating system;
    {!Faulty_io} wraps it to inject deterministic faults (short writes
    and reads, bit flips, failed fsyncs, ENOSPC, simulated crashes) so
    every crash point of the snapshot + journal pipeline can be
    exercised by tests.

    Operations raise [Sys_error] or [Unix.Unix_error] on failure, like
    the Stdlib/Unix primitives they wrap; callers are expected to
    convert those into [Seed_error.Io_error]. A fault injector may also
    raise its own exception (e.g. [Faulty_io.Crash]) which must {e not}
    be converted — it simulates the process dying at that syscall. *)

type file = {
  write : string -> unit;  (** append the bytes to the file *)
  fsync : unit -> unit;  (** force file contents to stable storage *)
  size : unit -> int;  (** the file's current length in bytes *)
  close : unit -> unit;
}
(** An open file handle positioned for writing. *)

type t = {
  open_append : string -> file;
      (** open (creating, 0o644) for appending at the end *)
  open_trunc : string -> file;
      (** open (creating, 0o644) truncated to empty *)
  rename : string -> string -> unit;
  unlink : string -> unit;
  truncate : string -> int -> unit;  (** cut the file to the given length *)
  fsync_dir : string -> unit;
      (** fsync a directory, making renames/unlinks in it durable *)
  exists : string -> bool;
  read_file : string -> string;
      (** whole-file read; the one read-side operation, so read faults
          (short reads, bit flips, EIO, EINTR) can be injected too *)
}

val real : t
(** The operating system. *)
