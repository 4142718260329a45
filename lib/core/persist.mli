(** Durable storage for SEED databases.

    A database directory holds an atomic snapshot plus an append-only
    journal ({!Seed_storage.Store}). Journal records are idempotent full
    re-assignments of items (last record wins); on top of that, every
    record and snapshot carries a compaction epoch, so a stale journal
    left behind by a crash mid-compaction is detected and skipped
    rather than replayed (see {!Seed_storage.Store}).

    {!Session} is the intended interface: open a directory, mutate the
    database through {!Database}, call {!Session.flush} between
    updates (it appends only the items that changed since the last
    flush) and {!Session.compact} occasionally. The durability of each
    flush is set by the session's {!Seed_storage.Journal.sync_policy};
    what recovery found and repaired on open is in
    {!Session.recovery}.

    Items name their schema elements — class path, sub-object role,
    association and relationship-attribute names — by number: a varint
    index into a table derived from the meta's schema revisions (oldest
    first, each revision's new names in sorted order) and never stored.
    Revisions are only ever prepended, so no number moves, and a record
    is decoded with the table of the last meta before it in stream
    order. The snapshot is format 3 and journal item records carry tag
    3: an item is its id — a gap from the previous item's in a
    snapshot, absolute in a record — then one varint flag word (body
    kind, dirty bit, the state's booleans and value kind, which options
    and lists are present), then only the fields the flags say are
    there. Format-1 and format-2 snapshots and tag-1 and tag-2 records
    are still read, and compaction rewrites them as format 3 (DESIGN.md
    §6, {i Record format}).

    Opening is one fold: the snapshot's version and meta are decoded
    first, then the journal's records into a small map, then the
    snapshot's items straight into the root in id order,
    the journal's versions merged in and every index built in the same
    pass ({!Db_state.load}) — the delta set from each item's stored
    dirty bit, the journal's record of an item overriding the
    snapshot's; last the root is verified
    ({!Consistency.check_database}). A malformed payload is
    [Error (Corrupt _)], never an exception. *)

open Seed_util
open Seed_schema

val w_value : Seed_storage.Codec.Writer.t -> Value.t -> unit
(** The binary value encoding of item records, shared with the wire
    protocol: a tag byte, then the payload. *)

val r_value : Seed_storage.Codec.Reader.t -> Value.t
(** Inverse of {!w_value}; a bad tag fails the enclosing
    [Codec.Reader.run]. *)

val encode_db : Database.t -> string
(** Whole-database snapshot payload, format 3: the meta, then the items
    in id order, as the item table folds them, their names numbered in
    the meta's table. Raises [Invalid_argument] on an item naming no
    element of any schema revision — a bug, since every update checks
    its names against the schema. *)

val decode_db : ?records:string list -> string -> (Database.t, Seed_error.t) result
(** A snapshot payload, format 1, 2 or 3, back into a database, with
    the journal [records] (default none, as
    {!Seed_storage.Store.open_dir} returns them) merged in as an open
    merges them, verified like {!load}. *)

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
    dir:string -> ?schema:Schema.t ->
    ?io:Seed_storage.Io.t -> ?sync:Seed_storage.Store.sync_policy ->
    unit ->
    (t, Seed_error.t) result
  (** Open (or create, given [schema]) the database at [dir], verified
      like {!load}. Opening an empty directory without a schema fails.
      A refused open — the snapshot does not decode, verification
      fails, or a fresh directory's first record cannot be written —
      closes the store it opened. [sync] (default [`Flush_only]) sets
      the durability of every journal append; [io] substitutes the I/O
      environment (fault injection in tests). Transient I/O faults are
      retried with bounded backoff ({!Seed_storage.Store.open_dir}). *)

  val db : t -> Database.t

  val recovery : t -> Seed_storage.Store.recovery
  (** What recovery found (and repaired) when the store was opened:
      records replayed, torn-tail bytes dropped, whether a stale journal
      was skipped or recovery fell back to a snapshot generation. *)

  val flush : t -> (unit, Seed_error.t) result
  (** Append journal records for the items in the database's
      {!Db_state.unflushed} set — every item whose state, history or
      membership of the delta set (its dirty bit, written from
      {!Db_state.dirty}) changed since the last flush, in id order — plus a
      metadata record when the schema list, the version tree or the
      current base was replaced since the last durable flush, compared
      by identity: nothing is encoded to decide. The meta record comes
      first, so a class a schema update in the same batch added is
      numbered before an item names it; the item records number their
      names in a table the session keeps per schema list (by identity),
      so no flush rebuilds it unless the schema changed. A moved id counter
      alone writes no record: open takes the counter as the max of the
      stored meta's value and every loaded id, and every durable id
      belongs to a stored item. Costs O(records written), not
      O(database). The batch is one atomic transaction, one journal
      frame, each record encoded once into the session's one frame
      writer; concurrent flushes coalesce into shared fsyncs via the
      store's commit daemon. The set is cleared, and the flushed meta
      noted, only after the transaction is appended, so a failed flush
      leaves the same records pending for the next one. Refused with
      [Invalid_operation] inside any atomic step ({!Db_state.depth}
      above 0: a transaction, an attached procedure, a transition rule),
      whose rollback would restore the set without the ids the flush
      wrote: flush between updates. *)

  val transaction :
    t -> (unit -> ('a, Seed_error.t) result) -> ('a, Seed_error.t) result
  (** [transaction t f] runs [f] as one transaction
      ({!Database.with_transaction}) whose last act is a {!flush}:
      the transaction publishes only once its records are durable. If
      [f] or the flush fails, the savepoint swap takes every update of
      [f] back off, the unflushed set with them, so concurrent
      snapshots never see a state the journal may not hold, and a retry
      applies to the state before the attempt. Refused like
      {!Database.with_transaction} inside an atomic step. *)

  val compact : t -> (unit, Seed_error.t) result
  (** Write a fresh snapshot (format 3, whatever format the store held)
      and truncate the journal; the snapshot holds every item, so the
      unflushed set is cleared. *)

  val journal_records : t -> int
  (** Records in the journal since the last compaction. *)

  val close : t -> unit
end
