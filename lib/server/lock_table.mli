(** Central write locks on independent objects, by name.

    "Data that has been copied to a client for update has a write lock
    in the central database" (paper, §Discussion). Acquisition is
    all-or-nothing so two clients cannot deadlock on overlapping
    checkout sets.

    A lock is just its holder: it lives until {!release}. The table
    keeps no clock and no lease; a front end that must not let a dead
    client wedge its objects (the network server's session lease)
    releases the client's locks when it gives the client up.

    {!acquire_wait} blocks (bounded backoff, injectable sleep/clock)
    until the locks come free or [timeout] elapses. Waiters form a
    wait-for graph; when a new waiter closes a cycle, the deadlock is
    broken by aborting that waiter — its locks are released and it gets
    [Deadlock] — so the remaining clients make progress. *)

type t

val create : unit -> t

val acquire :
  t -> client:string -> string list -> (unit, Seed_util.Seed_error.t) result
(** Lock every name for [client]; already holding a lock is fine; a
    name held by another client fails the whole acquisition with
    [Locked] (nothing is acquired). *)

val acquire_wait :
  t ->
  client:string ->
  ?now:(unit -> float) ->
  ?sleep:(float -> unit) ->
  timeout:float ->
  string list ->
  (unit, Seed_util.Seed_error.t) result
(** Like {!acquire}, but on conflict the caller waits and retries with
    the backoff of {!Seed_util.Retry.default_policy}
    until the locks come free or [timeout] seconds (on [now]) elapse —
    the last [Locked] error is then returned. If waiting would close a
    wait-for cycle, this requester is chosen as the deadlock victim:
    its locks are released and [Deadlock] is returned. [now] (default
    [Unix.gettimeofday]) and [sleep] (default [Unix.sleepf]) are
    injectable so tests can both run in zero wall-clock time and drive
    other clients between attempts. *)

val release : t -> client:string -> string list
(** Free everything [client] holds, and its wait-for edge, so a client
    given up on can neither block others nor figure in a phantom
    deadlock cycle. Returns the names freed, sorted — empty if the
    client held nothing. *)

type stats = {
  locks_held : int;  (** locks in the table *)
  waiters : int;  (** clients currently blocked in {!acquire_wait} *)
}

val stats : t -> stats
(** Occupancy snapshot for monitoring — are locks piling up? is
    anything wedged waiting? *)

val held_by : t -> client:string -> string list
(** Names this client currently locks, sorted. *)

val covers :
  t -> client:string -> ((string -> unit) -> unit) ->
  (unit, Seed_util.Seed_error.t) result
(** [covers t ~client each] checks that [client] holds a lock on every
    name [each f] passes to [f] (repeats allowed), with no list of them
    built. The error names the smallest name not held, [Locked] when
    another client holds it, whatever order [each] finds them in. *)
