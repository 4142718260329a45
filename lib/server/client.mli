(** A client of the central SEED server.

    Clients read through the server's lock-free {!Server.snapshot} but
    accumulate their updates locally; {!commit} sends the staged
    operations to the server, which applies them in a single
    transaction (paper, §Discussion). *)

open Seed_util

type t

val connect : Server.t -> name:string -> t

val checkout : t -> string list -> (unit, Seed_error.t) result
(** Write-lock objects on the server for this client. *)

val stage : t -> Protocol.op -> unit
(** Queue an operation locally; nothing reaches the server yet. *)

val commit : t -> (unit, Seed_error.t) result
(** Send the staged operations as one check-in. On success the queue is
    cleared and the locks released; on failure the queue and locks are
    kept so the client can amend and retry. *)

val abort : t -> unit
(** Drop the staged operations and release the locks: how a client whose
    {!commit} failed gives its batch up. *)
