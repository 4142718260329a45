(** The central SEED server.

    One central server runs the complete database; several clients use
    the server for retrieval operations but take local copies for making
    updates (paper, §Discussion). Check-in applies a client's operations
    as a single transaction: either every operation succeeds under the
    permanent consistency rules, or the database is restored to its
    pre-check-in state. Versions are kept globally under control of the
    server. *)

open Seed_util
open Seed_schema

type t

val create : Schema.t -> t
(** An in-memory server; see {!of_session} for a durable one. *)

val of_session : Seed_core.Persist.Session.t -> t
(** A server over a durable session's database: every {!checkin}
    flushes its batch through the session ({!Seed_core.Persist.Session.transaction})
    — one transaction, written as one journal frame, coalesced with
    concurrent checkins by the store's group-commit daemon — before it
    publishes: an acknowledged check-in is durable and visible, a
    failed one neither. A flush failure fails the checkin, rolls its
    batch back and keeps the client's locks, so a retry applies to the
    state before the attempt. The caller retains ownership of the
    session (close it after the server). *)

val database : t -> Seed_core.Database.t
(** The central database — retrieval operations go straight here. *)

val snapshot : t -> Seed_core.View.t
(** An immutable read-only view of the last committed state — an O(1)
    grab of the published copy-on-write root. The snapshot never takes
    the lock table and stays consistent however many check-ins commit
    after it, so retrieval (from any domain) runs concurrently with
    writers. *)

val checkout :
  t -> client:string -> names:string list -> (unit, Seed_error.t) result
(** Write-lock the named independent objects (or patterns) for the
    client. All of them must exist in the current version
    ({!Protocol.find_name}). The locks are held until
    the client checks in or they are released. *)

val checkout_wait :
  t ->
  client:string ->
  ?now:(unit -> float) ->
  ?sleep:(float -> unit) ->
  timeout:float ->
  names:string list ->
  unit ->
  (unit, Seed_error.t) result
(** Blocking {!checkout}: on lock conflict the call waits with bounded
    backoff until the locks come free or [timeout] seconds (on [now])
    elapse (the last [Locked] error is then returned). If waiting would
    close a wait-for cycle with other blocked clients, this client is
    aborted as the deadlock victim ([Deadlock]; its locks are
    released). See {!Lock_table.acquire_wait}. *)

val release : t -> client:string -> string list
(** Free everything the client holds — all its locks and its wait-for
    edge — without applying anything; returns the names freed, sorted.
    A client abandoning its checkout calls it, and so does a network
    front end giving up a client whose session ended. *)

val locked_by : t -> client:string -> string list

val lock_stats : t -> Lock_table.stats
(** Lock-table occupancy (held locks, blocked waiters) for
    monitoring. *)

val checkin :
  t -> client:string -> Protocol.op list -> (unit, Seed_error.t) result
(** Apply the client's operations ({!Protocol.apply}) in one transaction
    ({!Seed_core.Database.with_transaction}): either every operation
    succeeds, or the whole batch is rolled back by an O(1) root swap —
    attached procedures and transition rules are untouched either way,
    and no intermediate state is ever published to snapshots.
    Every touched existing object must be covered by the client's
    locks; a failing operation keeps the locks (the client may fix
    and retry). On success the client's locks are released — after the
    batch has been durably flushed and published, when the server was
    built with {!of_session}; a failed flush is a failed operation. *)

val create_version : t -> (Version_id.t, Seed_error.t) result
(** Global version creation, server-controlled. *)

val checkin_count : t -> int
(** Successful check-ins so far (monitoring). *)
