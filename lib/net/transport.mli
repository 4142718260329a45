(** A connection that carries whole encoded frames.

    The transport moves opaque frame bytes (as produced by
    {!Frame.encode}); interpreting them is the peer's job. Keeping the
    interface this small lets the same protocol logic run over a real
    TCP socket, an in-process test harness, or a fault-injecting
    wrapper, and makes "the wire ate my frame" indistinguishable from
    "the process died" — which is exactly the assumption the session
    layer is built on. *)

type t = {
  send : string -> (unit, Seed_util.Seed_error.t) result;
      (** Ship one encoded frame. Any error means the connection is no
          longer trustworthy. *)
  recv : timeout:float option -> (string, Seed_util.Seed_error.t) result;
      (** Receive one whole encoded frame. A clean timeout (no bytes
          consumed) is [Io_transient] and the connection survives; a
          timeout mid-frame, EOF, or framing corruption is fatal. *)
  close : unit -> unit;
}

val of_fd : Unix.file_descr -> t
(** Framed transport over a stream socket: [of_reader (reader fd)]. *)

type reader
(** A stream socket's receive side: one buffer, reused for every frame
    up to {!Frame.kept_buffer}, and the receive timeout last set on the
    socket. *)

val reader : Unix.file_descr -> reader

val read_frame : reader -> timeout:float option -> (int, Seed_util.Seed_error.t) result
(** Read one whole frame: [Ok n] when it is the first [n] bytes of
    {!frame_buffer}, which hold it until the next [read_frame]. Reads
    header then payload, checking the header's magic and length bound
    (the CRC is the receiver's to check, {!Frame.check}); [SO_RCVTIMEO]
    is set only when [timeout] differs from the last one set. Errors as
    for [recv]. *)

val frame_buffer : reader -> Bytes.t

val of_reader : reader -> t
(** The transport over a reader's socket. [send] writes the frame fully
    (absorbing EINTR/partial writes); [recv] is {!read_frame} with the
    frame copied out once. The fd is closed by [close]. *)

val of_functions :
  send:(string -> (unit, Seed_util.Seed_error.t) result) ->
  recv:(timeout:float option -> (string, Seed_util.Seed_error.t) result) ->
  close:(unit -> unit) ->
  t
(** Synthetic transport for tests and the chaos harness. *)
