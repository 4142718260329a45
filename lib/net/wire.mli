(** Request/response messages and their binary codecs.

    Messages are encoded with {!Seed_storage.Codec} (the same LEB128
    primitives as the on-disk format) and travel one per {!Frame}.

    Every request carries a client-chosen [req_id], strictly increasing
    within a session. The server remembers the last executed id and its
    encoded response; a client that lost the connection before reading a
    response reconnects, resumes its session and {e replays} the same
    request with the same id — the server answers from the cache without
    re-applying, so a check-in is applied exactly once however often the
    wire fails. Responses echo the id so a client can discard stale or
    duplicated frames. *)

open Seed_server

type req_body =
  | Hello of {
      protocol : int;
      client : string;
      resume : (int64 * int64) option;  (** session id, token *)
    }
  | Checkout of { names : string list; wait_timeout : float option }
      (** [wait_timeout = Some s] blocks up to [s] seconds on conflict
          (server-side bounded wait, capped at the session TTL); [None]
          fails fast with [Locked]. *)
  | Checkin of Protocol.op list
  | Release
  | Find of string  (** object name -> class path, if it exists *)
  | Select_isa of string  (** class -> names of objects that are-a it *)
  | Stats
  | Ping
  | Bye
  | Search of { path : string; needles : string list }
      (** conjunctive containment search ([Query.matches]) at a class
          path ([""] = any) -> names of the matching objects *)

type request = { req_id : int64; body : req_body }

(** Wire error codes: the subset of {!Seed_util.Seed_error.t} a client
    reacts to programmatically; everything else travels as [Op_failed]
    with the rendered message. [retryable] distinguishes "try again
    later, nothing happened" from "this request is dead". *)
type err_code =
  | Locked
  | Deadlock
  | Unknown_name
  | Session_expired
  | Already_connected
  | Bad_request
  | Unsupported_protocol
  | Op_failed
  | Server_error

type wire_error = { code : err_code; message : string; retryable : bool }

type server_stats = {
  sv_sessions : int;  (** live sessions *)
  sv_max_sessions : int;
  sv_in_flight : int;
  sv_max_in_flight : int;
  sv_served : int;  (** requests executed since start *)
  sv_busy_rejects : int;  (** requests shed by admission control *)
  sv_reaped_sessions : int;  (** sessions whose lease ran out *)
  sv_checkins : int;
  sv_locks_held : int;
  sv_lock_waiters : int;
  sv_objects : int;
  sv_relationships : int;
  sv_versions : int;
}

type resp_body =
  | Welcome of {
      protocol : int;
      session : int64;
      token : int64;
      ttl : float;  (** the session lease: resume within this window *)
      resumed : bool;
    }
  | Done
  | Found of string option
  | Names of string list
  | Stats_reply of server_stats
  | Pong
  | Busy of { retry_after : float }
      (** admission control: over capacity, nothing was executed *)
  | Draining  (** server shutting down; retryable against a replica/later *)
  | Err of wire_error

type response = { rsp_id : int64; rbody : resp_body }

val encode_request : request -> string
val decode_request : string -> (request, Seed_util.Seed_error.t) result
val encode_response : response -> string
val decode_response : string -> (response, Seed_util.Seed_error.t) result

val error_to_wire : Seed_util.Seed_error.t -> wire_error
(** Classify an engine error for the wire: the code, the rendered
    message, and whether retrying the same operation later can succeed
    ([Locked], [Io_transient] — yes; consistency violations — no). *)

(** [Busy], [Draining], and retryable [Err]s. *)

val pp_server_stats : Format.formatter -> server_stats -> unit
