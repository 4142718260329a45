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

val create : ?now:(unit -> float) -> Schema.t -> t
(** [now] is the lock table's lease clock (default [Unix.gettimeofday];
    injectable for tests). The server is in-memory only; see
    {!of_session} for a durable one. *)

val of_session : ?now:(unit -> float) -> Seed_core.Persist.Session.t -> t
(** A server over a durable session's database: every successful
    {!checkin} flushes the committed batch through the session — one
    atomic journal transaction group, coalesced with concurrent
    checkins by the store's group-commit daemon. A flush failure fails the checkin and
    keeps the client's locks; the un-flushed records stay pending, so
    the next successful flush carries them. The caller retains
    ownership of the session (close it after the server). *)

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
(** Write-lock the named independent objects for the client. All the
    objects must exist in the current version. The locks are held until
    released (no lease). *)

val checkout_lease :
  t ->
  client:string ->
  ttl:float ->
  names:string list ->
  (unit, Seed_error.t) result
(** Like {!checkout}, but the locks are leases expiring [ttl] seconds
    from now: once expired they stop blocking other clients and stop
    covering this client's check-ins (see {!Lock_table}). *)

val checkout_wait :
  t ->
  client:string ->
  ?ttl:float ->
  ?policy:Seed_util.Retry.policy ->
  ?sleep:(float -> unit) ->
  timeout:float ->
  names:string list ->
  unit ->
  (unit, Seed_error.t) result
(** Blocking {!checkout}: on lock conflict the call waits with bounded
    backoff until the locks come free or [timeout] seconds elapse (the
    last [Locked] error is then returned). If waiting would close a
    wait-for cycle with other blocked clients, this client is aborted as
    the deadlock victim ([Deadlock]; its locks are released). See
    {!Lock_table.acquire_wait}. *)

val release : t -> client:string -> unit
(** Abandon a checkout without applying anything. *)

val locked_by : t -> client:string -> string list

val expire_stale : t -> (string * string) list
(** Reap expired leases from the lock table; returns the
    [(name, holder)] pairs that lapsed, sorted by name. A dead client's
    expired locks never block acquisition even before this is called. *)

val release_session : t -> client:string -> string list
(** Free everything the client left behind — all its locks and its
    wait-for edge — in one call; returns the names freed. This is what
    a network front end calls when a session's lease runs out. *)

val refresh_leases : t -> client:string -> ttl:float -> unit
(** Push the expiry of every lease the client still holds out to [ttl]
    seconds from now — a heartbeat. Locks whose lease already lapsed
    are gone and stay gone. *)

val lock_stats : t -> Lock_table.stats
(** Lock-table occupancy (held locks, leases, expired-but-unreaped
    entries, blocked waiters) for monitoring. *)

val checkin :
  t -> client:string -> Protocol.op list -> (unit, Seed_error.t) result
(** Apply the client's operations in one transaction
    ({!Seed_core.Database.with_transaction}): either every operation
    succeeds, or the whole batch is rolled back by an O(1) root swap —
    attached procedures and transition rules are untouched either way,
    and no intermediate state is ever published to snapshots.
    Every touched existing object must be covered by the client's
    locks; a failing operation keeps the locks (the client may fix
    and retry). On success the client's locks are released — after the
    batch has been durably flushed, when the server was built with
    {!of_session}. *)

val create_version : t -> (Version_id.t, Seed_error.t) result
(** Global version creation, server-controlled. *)

val checkin_count : t -> int
(** Successful check-ins so far (monitoring). *)
