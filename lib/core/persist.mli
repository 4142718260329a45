(** Durable storage for SEED databases.

    A database directory holds an atomic snapshot plus an append-only
    journal ({!Seed_storage.Store}). Journal records are idempotent full
    re-assignments of items (last record wins); on top of that, every
    record and snapshot carries a compaction epoch, so a stale journal
    left behind by a crash mid-compaction is detected and skipped
    rather than replayed (see {!Seed_storage.Store}).

    {!Session} is the intended interface: open a directory, mutate the
    database through {!Database}, call {!Session.flush} at transaction
    boundaries (it appends only the items that changed since the last
    flush) and {!Session.compact} occasionally. The durability of each
    flush is set by the session's {!Seed_storage.Journal.sync_policy};
    what recovery found and repaired on open is in
    {!Session.recovery}.

    Opening is one fold: the journal's records are decoded into a small
    map, then the snapshot's items straight into the root in id order,
    the journal's versions merged in and every index built in the same
    pass ({!Db_state.load}); last the root is verified
    ({!Consistency.check_database}) unless [~verify:false]. A malformed
    payload is [Error (Corrupt _)], never an exception. *)

open Seed_util
open Seed_schema

val w_value : Seed_storage.Codec.Writer.t -> Value.t -> unit
(** The binary value encoding of item records, shared with the wire
    protocol: a tag byte, then the payload. *)

val r_value : Seed_storage.Codec.Reader.t -> Value.t
(** Inverse of {!w_value}; a bad tag fails the enclosing
    [Codec.Reader.run]. *)

val encode_db : Database.t -> string
(** Whole-database snapshot payload: the items in id order, as the item
    table folds them. *)

val decode_db : string -> (Database.t, Seed_error.t) result
(** A snapshot payload back into a database, verified like {!load}. *)

val save : Database.t -> dir:string -> (unit, Seed_error.t) result
(** One-shot: write a snapshot of the database into [dir] (creating it),
    truncating any journal. *)

val load : ?verify:bool -> dir:string -> unit -> (Database.t, Seed_error.t) result
(** Rebuild a database from [dir]: snapshot plus journal replay. With
    [verify] (default [true]) the loaded state is swept by
    {!Consistency.check_database} and refused when corrupt. *)

module Session : sig
  type t

  val open_ :
    dir:string -> ?schema:Schema.t -> ?verify:bool ->
    ?io:Seed_storage.Io.t -> ?sync:Seed_storage.Store.sync_policy ->
    ?retry:Retry.policy ->
    ?sleep:(float -> unit) ->
    unit ->
    (t, Seed_error.t) result
  (** Open (or create, given [schema]) the database at [dir]. Opening an
      empty directory without a schema fails. A refused open — the
      snapshot does not decode, verification fails, or a fresh
      directory's first record cannot be written — closes the store it
      opened. [sync] (default
      [`Flush_only]) sets the durability of every journal append; [io]
      substitutes the I/O environment (fault injection in tests);
      [retry]/[sleep] the bounded-backoff policy absorbing transient I/O
      faults (see {!Seed_storage.Store.open_dir}). *)

  val db : t -> Database.t

  val recovery : t -> Seed_storage.Store.recovery
  (** What recovery found (and repaired) when the store was opened:
      records replayed, torn-tail bytes dropped, whether a stale journal
      was skipped or recovery fell back to a snapshot generation. *)

  val flush : t -> (unit, Seed_error.t) result
  (** Append journal records for the items in the database's
      {!Db_state.unflushed} set — every item whose state, dirty flag or
      history changed since the last flush, in id order — plus a
      metadata record when the version tree, schema, or id generator
      advanced. Costs O(items changed), not O(database). The batch is
      one atomic transaction, one journal frame; concurrent flushes
      coalesce into shared fsyncs via the store's commit daemon. The set
      is cleared only after the transaction is appended, so a failed flush
      leaves the same records pending for the next one. Refused with
      [Invalid_operation] while a {!Database} transaction is active:
      flush at transaction boundaries. *)

  val compact : t -> (unit, Seed_error.t) result
  (** Write a fresh snapshot and truncate the journal; the snapshot
      holds every item, so the unflushed set is cleared. *)

  val journal_records : t -> int
  (** Records in the journal since the last compaction. *)

  val close : t -> unit
end
