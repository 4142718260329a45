(** The networked SEED server: sessions with a TTL lease over the
    in-process {!Seed_server.Server} engine.

    The core ({!create}/{!on_frame}) is transport-agnostic — one
    function from an incoming frame to an action — so the chaos suite
    can drive it deterministically through {!Faulty_transport} without
    sockets; {!serve} puts the same core behind a TCP accept loop with
    one thread per connection.

    {b Session lifecycle.} A connection starts with [Hello]; the server
    answers [Welcome] with a session id, a resume token and the lease
    TTL. The session's lease is the only one: a lock carries no expiry
    of its own and lives until the client checks in, releases, says
    [Bye] or its session is reaped. Every executed request restarts the
    lease when it ends, and a session is never reaped while one of its
    requests is executing (a blocking checkout sleeps with the engine
    mutex released, for at most one TTL whatever wait it asked for).
    Once the lease has run out the session is reaped and all its locks
    are bulk-released ({!Seed_server.Server.release}) — before any
    request is executed, and by {!serve}'s reaper thread when idle — so
    a dead client cannot wedge its objects past the TTL after its last
    request ends. [Bye] frees the session's locks at once; a wait still
    running then is answered [Session_expired], its take is released,
    and the client name stays taken until it ends. A disconnected client reconnects, sends [Hello] with
    [resume = Some (id, token)] inside the lease window, and is back in
    its session: same locks, and the {e replay
    cache} (last executed request id → encoded response) means
    re-sending the request whose response was lost returns the recorded
    answer instead of applying it twice. Outside the window resume
    fails with [Session_expired] — the locks are gone and replay safety
    with them, so the client must start fresh and re-verify.

    {b Robustness rules.} Framing corruption closes the connection (a
    byte stream that lost sync is untrustworthy); the session survives
    for the lease window. Admission control sheds load instead of
    queueing it: too many sessions, or more than 128 requests in
    flight, get [Busy] — never a hang. {!shutdown} makes the server
    finish what it is executing and answer everything newly arriving
    with the retryable [Draining]. No client input may crash the server: [on_frame]
    converts engine exceptions into [Server_error] responses. *)

type config = {
  max_sessions : int;  (** admission cap on live sessions (default 64) *)
  session_ttl : float;  (** session lease seconds; reaping frees its locks *)
}

type t

val create :
  ?config:config ->
  ?now:(unit -> float) ->
  ?sleep:(float -> unit) ->
  Seed_server.Server.t ->
  t
(** A server core over an engine; [config] defaults to 64 sessions and
    a 30 s lease. [now] is the clock of session leases and
    blocking-checkout deadlines, [sleep] the wait between checkout
    attempts (the engine mutex is released around it); both default to
    the wall clock and are injectable for tests. *)

(** Per-connection state: which session, if any, the connection has
    authenticated as. *)
module Conn : sig
  type t
end

val open_conn : t -> Conn.t

val close_conn : t -> Conn.t -> unit
(** The connection is gone. Its session (if any) stays alive until the
    lease expires, waiting for a resume. *)

type action =
  | Reply of string  (** send this encoded frame, keep the connection *)
  | Reply_close of string  (** send, then drop the connection *)
  | Close  (** drop the connection without a reply *)

val on_frame : t -> Conn.t -> string -> action
(** Process one incoming encoded frame. Never raises. The response is
    encoded into a buffer the connection keeps, header and CRC
    included, and copied out once. *)

val on_buffer : t -> Conn.t -> Bytes.t -> len:int -> action
(** {!on_frame} of the frame held in the first [len] bytes of the
    buffer, checked and decoded in place, with no copy of the frame or
    its payload: the TCP loop's receive buffer
    ({!Transport.read_frame}). *)

val reap : t -> (string * string list) list
(** Reap every session whose lease has run out and that has no request
    executing; returns [(client, freed locks)] for each. Called
    internally on every frame, where it looks at the sessions only once
    the earliest lease can have run out, and by {!serve}'s reaper thread
    when the server is idle. *)

val stats : t -> Wire.server_stats

(* --- TCP front end ---------------------------------------------------- *)

type listener

val serve :
  ?host:string ->
  port:int ->
  t ->
  (listener, Seed_util.Seed_error.t) result
(** Bind and listen on [host:port] (default host 127.0.0.1; port 0
    picks an ephemeral port — see {!port}) with a backlog of 64, accept
    in a background thread, one handler thread per connection. A reaper
    thread expires sessions even when the server is idle. *)

val port : listener -> int

val shutdown : ?grace:float -> listener -> unit
(** Graceful drain: stop accepting, drain the core (everything arriving
    from now on, through any connection, is answered [Draining]), let
    in-flight requests finish, keep answering [Draining] for [grace]
    seconds (default 0.2) so queued clients get a retryable error
    instead of a reset, then close every connection and join the
    threads. *)
