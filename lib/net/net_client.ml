open Seed_util

type error = Transport of Seed_error.t | Remote of Wire.wire_error

let pp_error ppf = function
  | Transport e -> Format.fprintf ppf "transport: %a" Seed_error.pp e
  | Remote w -> Format.fprintf ppf "server: %s" w.Wire.message

type config = {
  client : string;
  request_timeout : float;
  retry_window : float;
  retry_policy : Retry.policy;
}

let default_config ~client =
  {
    client;
    request_timeout = 2.0;
    retry_window = 10.0;
    retry_policy = Retry.default_policy;
  }

type t = {
  cfg : config;
  dial : unit -> (Transport.t, Seed_error.t) result;
  now : unit -> float;
  sleep : float -> unit;
  mutable tr : Transport.t option;
  mutable session : (int64 * int64) option;  (* id, token *)
  mutable next_req : int64;
}

let create ?config ?(now = Unix.gettimeofday) ?(sleep = Thread.delay) ~client
    ~dial () =
  let cfg = match config with Some c -> c | None -> default_config ~client in
  let cfg = { cfg with client } in
  { cfg; dial; now; sleep; tr = None; session = None; next_req = 1L }

let connect_tcp ?config ~client ~host ~port () =
  let dial () =
    try
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      Ok (Transport.of_fd fd)
    with
    | Unix.Unix_error
        ( ( Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EPIPE | Unix.ETIMEDOUT
          | Unix.EINTR | Unix.EAGAIN | Unix.ENETUNREACH | Unix.EHOSTUNREACH ),
          fn,
          _ ) ->
      (* a server that is restarting or draining looks like this; the
         reconnect loop should keep knocking until its window closes *)
      Seed_error.fail (Seed_error.Io_transient (Printf.sprintf "connect: %s" fn))
    | Unix.Unix_error (e, fn, _) ->
      Seed_error.fail
        (Seed_error.Io_error
           (Printf.sprintf "connect: %s: %s" fn (Unix.error_message e)))
  in
  create ?config ~client ~dial ()

let fresh_id t =
  let id = t.next_req in
  t.next_req <- Int64.add id 1L;
  id

let disconnect t =
  (match t.tr with Some tr -> tr.Transport.close () | None -> ());
  t.tr <- None

(* One request/response exchange on an open transport. Responses whose
   id is not [req_id] are stragglers from a previous connection (or wire
   duplicates) — skip them. A transient recv error is a clean timeout:
   the response is presumed lost and the caller reconnects/replays. *)
let exchange t tr ~req_id body =
  let open Seed_error in
  let* () =
    tr.Transport.send (Frame.encode (Wire.encode_request { Wire.req_id; body }))
  in
  let deadline = t.now () +. t.cfg.request_timeout in
  let rec await () =
    let remaining = deadline -. t.now () in
    if remaining <= 0.0 then fail (Io_transient "response timeout")
    else
      let* frame = tr.Transport.recv ~timeout:(Some remaining) in
      let* payload = Frame.decode frame in
      let* resp = Wire.decode_response payload in
      if Int64.equal resp.Wire.rsp_id req_id then Ok resp.Wire.rbody
      else await ()
  in
  await ()

(* Establish (or resume) a session on a fresh transport. Non-retryable
   server refusals are smuggled out of the [Retry] loop through [fatal]
   as a permanent error. *)
let establish t ~fatal =
  match t.dial () with
  | Error e -> Error e
  | Ok tr -> (
    let req_id = fresh_id t in
    let hello =
      Wire.Hello
        { protocol = Frame.version; client = t.cfg.client; resume = t.session }
    in
    match exchange t tr ~req_id hello with
    | Error e ->
      tr.Transport.close ();
      Error e
    | Ok (Wire.Welcome { session; token; _ }) ->
      t.session <- Some (session, token);
      t.tr <- Some tr;
      Ok tr
    | Ok (Wire.Busy { retry_after }) ->
      tr.Transport.close ();
      t.sleep retry_after;
      Seed_error.fail (Seed_error.Io_transient "server busy")
    | Ok Wire.Draining ->
      tr.Transport.close ();
      Seed_error.fail (Seed_error.Io_transient "server draining")
    | Ok (Wire.Err w) ->
      tr.Transport.close ();
      if w.Wire.retryable then
        Seed_error.fail (Seed_error.Io_transient w.Wire.message)
      else begin
        (* e.g. Session_expired: replay safety is gone, surface it *)
        fatal := Some (Remote w);
        Seed_error.fail (Seed_error.Io_error w.Wire.message)
      end
    | Ok _ ->
      tr.Transport.close ();
      Seed_error.fail (Seed_error.Io_error "malformed hello response"))

let ensure_conn t ~deadline ~fatal =
  match t.tr with
  | Some tr -> Ok tr
  | None ->
    Retry.with_deadline ~policy:t.cfg.retry_policy ~sleep:t.sleep ~now:t.now
      ~deadline (fun () -> establish t ~fatal)

(* The robustness loop: send, await, and on any wire failure reconnect
   (resuming the session) and retransmit the SAME request id — the
   server's replay cache makes the retransmit idempotent. Busy/Draining
   answers loop with backoff inside the same deadline. *)
let rpc t body =
  let req_id = fresh_id t in
  let deadline = t.now () +. t.cfg.retry_window in
  let fatal = ref None in
  let attempt = ref 0 in
  let backoff () =
    incr attempt;
    t.sleep (Retry.delay_for t.cfg.retry_policy ~attempt:(min !attempt 16))
  in
  let rec go last_err =
    match !fatal with
    | Some e -> Error e
    | None ->
      if t.now () >= deadline then
        Error
          (match last_err with
          | Some e -> e
          | None -> Transport (Seed_error.Io_error "request retry window over"))
      else begin
        match ensure_conn t ~deadline ~fatal with
        | Error e -> (
          match !fatal with Some f -> Error f | None -> Error (Transport e))
        | Ok tr -> (
          match exchange t tr ~req_id body with
          | Error e ->
            (* lost connection or lost response: reconnect, resume,
               replay this request id *)
            disconnect t;
            go (Some (Transport e))
          | Ok (Wire.Busy { retry_after }) ->
            t.sleep retry_after;
            go (Some (Remote { code = Wire.Server_error;
                               message = "server busy";
                               retryable = true }))
          | Ok Wire.Draining ->
            backoff ();
            disconnect t;
            go (Some (Remote { code = Wire.Server_error;
                               message = "server draining";
                               retryable = true }))
          | Ok rbody -> Ok rbody)
      end
  in
  go None

(* [reply] picks the expected response out of [rpc]'s result; an [Err]
   is the server's refusal, anything else a protocol fault *)
let expect reply = function
  | Ok (Wire.Err w) -> Error (Remote w)
  | Ok rbody -> (
    match reply rbody with
    | Some v -> Ok v
    | None ->
      Error
        (Remote
           { Wire.code = Wire.Server_error;
             message = "unexpected response";
             retryable = false }))
  | Error e -> Error e

let expect_done = expect (function Wire.Done -> Some () | _ -> None)

let checkout ?wait_timeout t names =
  expect_done (rpc t (Wire.Checkout { names; wait_timeout }))

let checkin t ops = expect_done (rpc t (Wire.Checkin ops))
let release t = expect_done (rpc t Wire.Release)

let find t name =
  expect (function Wire.Found r -> Some r | _ -> None) (rpc t (Wire.Find name))

let names_reply = function Wire.Names ns -> Some ns | _ -> None
let select_isa t cls = expect names_reply (rpc t (Wire.Select_isa cls))
let search t ~path needles = expect names_reply (rpc t (Wire.Search { path; needles }))

let stats t =
  expect (function Wire.Stats_reply s -> Some s | _ -> None) (rpc t Wire.Stats)

let ping t = expect (function Wire.Pong -> Some () | _ -> None) (rpc t Wire.Ping)

let close t =
  (match t.tr with
  | Some tr ->
    (* best effort: free the session's locks now rather than at TTL *)
    let req_id = fresh_id t in
    ignore (exchange t tr ~req_id Wire.Bye)
  | None -> ());
  disconnect t;
  t.session <- None
