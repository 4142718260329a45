(** Client library for the networked SEED server.

    The client owns the robustness loop so applications see plain
    results: it dials with {!Seed_util.Retry.with_deadline} exponential
    backoff, establishes a session ([Hello]/[Welcome]), and on any wire
    failure reconnects, {e resumes} the session and retransmits the
    in-flight request with its original request id — the server's replay
    cache turns the retransmit into the recorded response, so a check-in
    is applied exactly once however many times the connection dies under
    it. [Busy] and [Draining] answers are retried with backoff inside
    the same window. Responses whose id does not match the outstanding
    request (duplicates, stragglers from before a reconnect) are
    discarded.

    The one failure the client will not paper over: if the session
    lease expired while a request's outcome was unknown, resuming fails
    with [Session_expired] and the error is surfaced — retrying blind
    could apply the request twice, so the application must re-establish
    and re-verify. *)

open Seed_util

type error =
  | Transport of Seed_error.t
      (** the connection could not be (re-)established within the
          retry window; the last request's outcome may be unknown *)
  | Remote of Wire.wire_error  (** the server answered with an error *)

val pp_error : Format.formatter -> error -> unit

type config = {
  client : string;  (** lock-owner name sent in [Hello] *)
  request_timeout : float;
      (** seconds to wait for one response before presuming it lost and
          reconnecting *)
  retry_window : float;
      (** seconds a request keeps reconnecting/retrying before giving
          up; keep it inside the server's session TTL *)
  retry_policy : Retry.policy;  (** backoff shape for reconnects *)
}

type t

val create :
  ?config:config ->
  ?now:(unit -> float) ->
  ?sleep:(float -> unit) ->
  client:string ->
  dial:(unit -> (Transport.t, Seed_error.t) result) ->
  unit ->
  t
(** A client over an arbitrary transport factory. Nothing is dialled
    until the first request. [config] defaults to a 2s request timeout,
    a 10s retry window and {!Retry.default_policy}. [now]/[sleep] are
    injectable for deterministic tests. *)

val connect_tcp :
  ?config:config -> client:string -> host:string -> port:int -> unit -> t
(** {!create} with a TCP dialler (connection refused/reset are treated
    as transient, so a restarting server is retried, not fatal). *)

val checkout :
  ?wait_timeout:float -> t -> string list -> (unit, error) result

val checkin : t -> Seed_server.Protocol.op list -> (unit, error) result

val release : t -> (unit, error) result

val find : t -> string -> (string option, error) result

val select_isa : t -> string -> (string list, error) result

val search : t -> path:string -> string list -> (string list, error) result
(** Names of the live objects carrying a string value at [path]
    ([""] = any class path) that contains all the needles — the
    server runs [Query.matches] against its current snapshot, planned
    from the trigram index. *)

val stats : t -> (Wire.server_stats, error) result

val ping : t -> (unit, error) result

val close : t -> unit
(** Best-effort [Bye] (frees the session's locks immediately instead of
    waiting out the lease), then closes the transport. *)
