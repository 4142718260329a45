open Seed_util.Seed_error

type t = {
  send : string -> (unit, Seed_util.Seed_error.t) result;
  recv : timeout:float option -> (string, Seed_util.Seed_error.t) result;
  close : unit -> unit;
}

let of_functions ~send ~recv ~close = { send; recv; close }

(* --- stream sockets --------------------------------------------------- *)

let rec write_all fd s off len =
  if len = 0 then Ok ()
  else
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) ->
      write_all fd s off len
    | exception Unix.Unix_error (e, _, _) ->
      fail (Io_error (Printf.sprintf "send: %s" (Unix.error_message e)))

(* Read exactly [len] bytes into [buf] at [off]. A timeout before the
   first of them leaves the stream intact (transient — the caller may
   simply wait again), while a timeout or EOF mid-frame loses framing
   sync and kills the connection. *)
let read_exact fd buf off len =
  let stop = off + len in
  let rec go pos =
    if pos = stop then Ok ()
    else
      match Unix.read fd buf pos (stop - pos) with
      | 0 -> fail (Io_error "connection closed by peer")
      | n -> go (pos + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        ->
        if pos = off then fail (Io_transient "recv timeout")
        else fail (Io_error "recv timeout mid-frame")
      | exception Unix.Unix_error (e, _, _) ->
        fail (Io_error (Printf.sprintf "recv: %s" (Unix.error_message e)))
  in
  go off

type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable timeout : float;  (* the SO_RCVTIMEO last set; -inf = none yet *)
}

let reader fd = { fd; buf = Bytes.create 4096; timeout = neg_infinity }
let frame_buffer r = r.buf

let set_timeout r t =
  (* SO_RCVTIMEO of 0 means "block forever" *)
  let t = match t with None -> 0.0 | Some s -> Float.max 0.000001 s in
  if not (Float.equal t r.timeout) then
    match Unix.setsockopt_float r.fd Unix.SO_RCVTIMEO t with
    | () -> r.timeout <- t
    | exception Unix.Unix_error _ -> ()

let read_frame r ~timeout =
  set_timeout r timeout;
  if Bytes.length r.buf > Frame.kept_buffer then r.buf <- Bytes.create 4096;
  match read_exact r.fd r.buf 0 Frame.header_size with
  | Error _ as e -> e
  | Ok () -> (
    match Frame.payload_length (Bytes.unsafe_to_string r.buf) with
    | Error _ as e -> e
    | Ok len -> (
      let n = Frame.header_size + len in
      if Bytes.length r.buf < n then begin
        let b = Bytes.create n in
        Bytes.blit r.buf 0 b 0 Frame.header_size;
        r.buf <- b
      end;
      (* the header arrived; the payload must follow promptly or the
         stream is broken — a partial-frame stall is fatal *)
      match read_exact r.fd r.buf Frame.header_size len with
      | Ok () -> Ok n
      | Error (Io_transient _) -> fail (Io_error "recv timeout mid-frame")
      | Error _ as e -> e))

let of_reader r =
  let send frame = write_all r.fd frame 0 (String.length frame) in
  let recv ~timeout =
    match read_frame r ~timeout with
    | Ok n -> Ok (Bytes.sub_string r.buf 0 n)
    | Error _ as e -> e
  in
  let close () = try Unix.close r.fd with Unix.Unix_error _ -> () in
  { send; recv; close }

let of_fd fd = of_reader (reader fd)
