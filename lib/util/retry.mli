(** Bounded retry with exponential backoff.

    Transient faults (interrupted syscalls, short reads that succeed on the
    next attempt, a lock briefly held by a dying client) should be absorbed
    close to where they happen instead of bubbling up to the user.  [Retry]
    packages the loop: a policy bounds the number of attempts and shapes the
    delay curve, and the sleep and clock are injectable so tests run in zero
    wall-clock time. *)

type policy = {
  attempts : int;  (** total tries, including the first (>= 1) *)
  base_delay : float;  (** seconds before the first retry *)
  max_delay : float;  (** cap on any single delay *)
  multiplier : float;  (** exponential growth factor between retries *)
}

val default_policy : policy
(** 5 attempts, 1ms base, 100ms cap, 2x growth. *)

val delay_for : policy -> attempt:int -> float
(** [delay_for p ~attempt] is the backoff before retry number [attempt]
    (1-based): [min max_delay (base * multiplier^(attempt-1))]. *)

val with_retry :
  ?sleep:(float -> unit) ->
  ?should_retry:(Seed_error.t -> bool) ->
  ?on_retry:(attempt:int -> Seed_error.t -> unit) ->
  (unit -> ('a, Seed_error.t) result) ->
  ('a, Seed_error.t) result
(** [with_retry f] runs [f], retrying while it returns an error accepted by
    [should_retry] (default: only {!Seed_error.Io_transient}) and
    {!default_policy}'s attempts remain.  Between tries it calls [sleep]
    (default [Unix.sleepf]) with {!delay_for}.  After the final failed
    attempt a transient error is surfaced as a permanent [Io_error] so
    callers never see [Io_transient] escape a retry boundary. *)

val with_deadline :
  ?policy:policy ->
  ?sleep:(float -> unit) ->
  ?now:(unit -> float) ->
  ?should_retry:(Seed_error.t -> bool) ->
  ?on_retry:(attempt:int -> Seed_error.t -> unit) ->
  deadline:float ->
  (unit -> ('a, Seed_error.t) result) ->
  ('a, Seed_error.t) result
(** [with_deadline ~deadline f] retries like {!with_retry} but against an
    absolute deadline on [now]'s clock instead of an attempt count: the
    policy's [attempts] field is ignored, its delay curve is kept, and no
    sleep ever extends past [deadline] (the last gap before the deadline
    is spent on one shortened wait).  A client reconnecting to a server
    wants exactly this shape — "keep trying until my lease window is
    over", however many attempts that is.  As with {!with_retry}, an
    exhausted transient error hardens to [Io_error]. *)
