(** Leader/follower group-commit coalescing for the store's journal.

    Concurrently arriving committers {!submit} their transaction's
    sealed journal frame; the first to find no leader active takes the leader
    role, drains the whole queue, lands everything drained in {e one}
    physical append (one fsync under [`Always_fsync]) via
    {!Journal.append}, and wakes the followers with their
    durability result. Followers block in {!submit} until their
    transaction is durable (or failed). With N writers contending, each
    fsync covers up to N transactions — fsyncs per transaction drop well
    below 1 under load while every acked commit is still individually
    durable.

    There is no background thread to manage: the daemon is a queue plus
    a leader election, driven entirely by the committers themselves. It
    is made for one journal's sync policy, and counts the writers inside
    {!submit} itself: that count sizes its commit window. *)

type t

val create :
  Journal.sync_policy ->
  (string list -> (unit, Seed_util.Seed_error.t) result) ->
  t
(** [create sync write] makes a daemon whose leader lands each drained
    batch with one call to [write] (typically a retry-wrapped
    {!Journal.append} on the store's journal, opened with the same
    [sync]).

    Under [`Always_fsync] each successful batch bumps the {!stats}
    fsync counter, and the adaptive commit window is on: before
    draining, the leader naps in 10 µs increments while the round is
    still smaller than contention suggests it could reach — the larger
    of the previous round's size and the number of writers currently
    inside {!submit} (the classic [commit_siblings] signal) — stopping
    as soon as a nap brings no new arrival. Without it, rounds under
    steady contention alternate between large and singleton batches
    (the writers of the batch being fsynced cannot re-enqueue until it
    lands) and the fsync amortization stalls near 2x. The OS nap floor
    is tens of microseconds, about half an fsync. The window never
    fires single-threaded, so uncontended commit latency is untouched.
    Under [`Flush_only], where writes are near-free, it is off. *)

val submit : t -> string -> (unit, Seed_util.Seed_error.t) result
(** Enqueues the transaction's sealed frame and blocks until it is durable per the journal's
    sync policy, either by leading a batch or by being coalesced into
    another committer's. [Ok ()] is a durability ack for this transaction
    (and, transitively, the whole batch it rode in). If the leader's
    physical write raises — a fault injector's crash — waiting
    followers are failed and woken before the exception propagates from
    the leader's own [submit], so no domain deadlocks on a dead
    leader. *)

val pause : t -> unit
(** Blocks new batches and waits for the in-flight one to finish.
    Committers arriving while paused enqueue and sleep until {!resume}.
    Used to quiesce the journal around compaction's journal swap. *)

val resume : t -> unit
(** Lifts {!pause}; a waiting committer takes leadership and drains
    whatever queued up. *)

type stats = {
  submitted : int;  (** transactions submitted *)
  batches : int;  (** physical writes performed *)
  fsyncs : int;  (** fsyncs performed (0 unless [`Always_fsync]) *)
  max_batch : int;  (** most transactions coalesced into one write *)
  queue_hwm : int;  (** queue depth high-water mark *)
}

val stats : t -> stats
