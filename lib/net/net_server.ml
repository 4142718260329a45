open Seed_util
module Server = Seed_server.Server
module DB = Seed_core.Database
module View = Seed_core.View
module Query = Seed_core.Query

type config = {
  max_sessions : int;
  session_ttl : float;
}

let default_config = { max_sessions = 64; session_ttl = 30.0 }

(* Every request runs under the engine mutex except a blocking checkout
   while it sleeps, so at most one request plus the waiting checkouts
   are in flight: a cap nothing needs to set. *)
let max_in_flight = 128

(* the pause a [Busy] answer suggests before the client retries *)
let busy_retry_after = 0.05

type session = {
  sid : int64;
  token : int64;
  client : string;
  mutable expires : float;
  mutable running : int;  (* its requests executing right now *)
  mutable last_req : int64;  (* highest executed request id; 0 = none *)
  mutable last_frame : string;  (* its response, as the frame sent *)
}

type t = {
  eng : Server.t;
  cfg : config;
  now : unit -> float;
  sleep : float -> unit;
  m : Mutex.t;
  sessions : (int64, session) Hashtbl.t;
  by_client : (string, int64) Hashtbl.t;
  mutable next_sid : int64;
  mutable reap_at : float;  (* no lease runs out before this *)
  mutable in_flight : int;
  mutable is_draining : bool;
  mutable served : int;
  mutable busy_rejects : int;
  mutable reaped : int;
}

let create ?(config = default_config) ?(now = Unix.gettimeofday)
    ?(sleep = Thread.delay) engine =
  {
    eng = engine;
    cfg = config;
    now;
    sleep;
    m = Mutex.create ();
    sessions = Hashtbl.create 32;
    by_client = Hashtbl.create 32;
    next_sid = 1L;
    reap_at = infinity;
    in_flight = 0;
    is_draining = false;
    served = 0;
    busy_rejects = 0;
    reaped = 0;
  }

(* [out]: the connection's response buffer, reused for every frame *)
module Conn = struct
  type t = { mutable session : int64 option; out : Buffer.t }
end

let open_conn _t = { Conn.session = None; out = Buffer.create 256 }
let close_conn _t (c : Conn.t) = c.Conn.session <- None

type action = Reply of string | Reply_close of string | Close

(* --- sessions (all with [t.m] held) ----------------------------------- *)

let forget_client_locked t s =
  match Hashtbl.find_opt t.by_client s.client with
  | Some live when Int64.equal live s.sid -> Hashtbl.remove t.by_client s.client
  | Some _ | None -> ()

(* Ends a session and frees its locks at once. Its client name stays
   taken until none of its requests is executing, so a fresh session of
   that name cannot inherit a lock that a still-running wait takes. *)
let end_session_locked t s =
  Hashtbl.remove t.sessions s.sid;
  if s.running = 0 then forget_client_locked t s;
  Server.release t.eng ~client:s.client

(* Every lease is set here, so [reap_at] stays at or below each live
   session's expiry. *)
let set_expiry t s expires =
  s.expires <- expires;
  if expires < t.reap_at then t.reap_at <- expires

(* A session is reaped once its lease has run out and none of its
   requests is executing: a running request (a checkout waiting with the
   mutex released, for at most one ttl) holds its session, whose lease
   restarts when the request ends. Sessions are looked at only once a
   lease can have run out; the sweep then sets [reap_at] to the earliest
   lease left, skipping the running sessions, whose leases are set again
   when their requests end. *)
let reap_locked t =
  let horizon = t.now () in
  if horizon < t.reap_at then []
  else begin
    t.reap_at <- infinity;
    let dead =
      Hashtbl.fold
        (fun _ s acc ->
          if s.running > 0 then acc
          else if s.expires <= horizon then s :: acc
          else begin
            if s.expires < t.reap_at then t.reap_at <- s.expires;
            acc
          end)
        t.sessions []
    in
    List.map
      (fun s ->
        t.reaped <- t.reaped + 1;
        (s.client, end_session_locked t s))
      dead
  end

let touch_locked t s = set_expiry t s (t.now () +. t.cfg.session_ttl)

let stats_locked t =
  let ls = Server.lock_stats t.eng in
  let ds = DB.stats (Server.database t.eng) in
  {
    Wire.sv_sessions = Hashtbl.length t.sessions;
    sv_max_sessions = t.cfg.max_sessions;
    sv_in_flight = t.in_flight;
    sv_max_in_flight = max_in_flight;
    sv_served = t.served;
    sv_busy_rejects = t.busy_rejects;
    sv_reaped_sessions = t.reaped;
    sv_checkins = Server.checkin_count t.eng;
    sv_locks_held = ls.Seed_server.Lock_table.locks_held;
    sv_lock_waiters = ls.Seed_server.Lock_table.waiters;
    sv_objects = ds.DB.st_objects;
    sv_relationships = ds.DB.st_relationships;
    sv_versions = ds.DB.st_versions;
  }

let hello_locked t (conn : Conn.t) ~protocol ~client ~resume =
  if protocol <> Frame.version then
    Wire.Err
      {
        code = Wire.Unsupported_protocol;
        message =
          Printf.sprintf "server speaks protocol %d, client sent %d"
            Frame.version protocol;
        retryable = false;
      }
  else if t.is_draining then Wire.Draining
  else
    match resume with
    | Some (sid, token) -> (
      match Hashtbl.find_opt t.sessions sid with
      | Some s when Int64.equal s.token token && String.equal s.client client
        ->
        touch_locked t s;
        conn.Conn.session <- Some sid;
        Wire.Welcome
          {
            protocol = Frame.version;
            session = sid;
            token = s.token;
            ttl = t.cfg.session_ttl;
            resumed = true;
          }
      | Some _ | None ->
        (* expired, reaped, or wrong token: the locks are gone, replay
           safety with them — the client must start over and re-verify *)
        Wire.Err
          {
            code = Wire.Session_expired;
            message = "session expired or unknown; re-establish and verify";
            retryable = false;
          })
    | None ->
      if Hashtbl.length t.sessions >= t.cfg.max_sessions then begin
        t.busy_rejects <- t.busy_rejects + 1;
        Wire.Busy { retry_after = busy_retry_after }
      end
      else if Hashtbl.mem t.by_client client then
        Wire.Err
          {
            code = Wire.Already_connected;
            message =
              Printf.sprintf
                "client %S already has a live session; resume it or wait out \
                 its lease"
                client;
            retryable = true;
          }
      else begin
        let sid = t.next_sid in
        t.next_sid <- Int64.add t.next_sid 1L;
        let token =
          (* unique per session; mixed with the clock so a token from a
             previous server instance does not accidentally validate *)
          Int64.logxor
            (Int64.mul sid 0x9E3779B97F4A7C15L)
            (Int64.of_float (t.now () *. 1_000_000.0))
        in
        let s =
          {
            sid;
            token;
            client;
            expires = infinity;
            running = 0;
            last_req = 0L;
            last_frame = "";
          }
        in
        touch_locked t s;
        Hashtbl.replace t.sessions sid s;
        Hashtbl.replace t.by_client client sid;
        conn.Conn.session <- Some sid;
        Wire.Welcome
          {
            protocol = Frame.version;
            session = sid;
            token;
            ttl = t.cfg.session_ttl;
            resumed = false;
          }
      end

(* --- request execution ------------------------------------------------ *)

let execute_locked t (conn : Conn.t) s (body : Wire.req_body) =
  match body with
  | Wire.Checkout { names; wait_timeout } -> (
    let r =
      match wait_timeout with
      | None -> Server.checkout t.eng ~client:s.client ~names
      | Some timeout ->
        (* the wait holds its session, so it is capped at one ttl: a
           dead client's locks then go at most one ttl after its last
           request ends. [not (timeout <= ttl)] catches NaN too. *)
        let ttl = t.cfg.session_ttl in
        let timeout = if timeout <= ttl then timeout else ttl in
        (* the engine mutex is released while the waiter sleeps so other
           connections can run — including the one that will release
           the contended lock *)
        let sleep d =
          Mutex.unlock t.m;
          Fun.protect
            ~finally:(fun () -> Mutex.lock t.m)
            (fun () -> t.sleep d)
        in
        Server.checkout_wait t.eng ~client:s.client ~now:t.now ~sleep ~timeout
          ~names ()
    in
    match r with
    | Ok () -> Wire.Done
    | Error e -> Wire.Err (Wire.error_to_wire e))
  | Wire.Checkin ops -> (
    match Server.checkin t.eng ~client:s.client ops with
    | Ok () -> Wire.Done
    | Error e -> Wire.Err (Wire.error_to_wire e))
  | Wire.Release ->
    ignore (Server.release t.eng ~client:s.client);
    Wire.Done
  | Wire.Find name -> (
    let v = Server.snapshot t.eng in
    match View.resolve_name v name with
    | Some it -> Wire.Found (View.class_path_of v it)
    | None -> Wire.Found None)
  | Wire.Select_isa cls ->
    Wire.Names (Query.select_names (Server.snapshot t.eng) (Query.is_a cls))
  | Wire.Search { path; needles } ->
    Wire.Names
      (Query.select_names (Server.snapshot t.eng) (Query.matches path needles))
  | Wire.Stats -> Wire.Stats_reply (stats_locked t)
  | Wire.Ping -> Wire.Pong
  | Wire.Bye ->
    ignore (end_session_locked t s);
    conn.Conn.session <- None;
    Wire.Done
  | Wire.Hello _ ->
    Wire.Err
      {
        code = Wire.Bad_request;
        message = "hello on an established session";
        retryable = false;
      }

let reply (conn : Conn.t) ~req_id rbody =
  let frame = Wire.response_frame conn.Conn.out { Wire.rsp_id = req_id; rbody } in
  if Buffer.length conn.Conn.out > Frame.kept_buffer then Buffer.reset conn.Conn.out;
  frame

let bad_request conn ~req_id message =
  Reply_close
    (reply conn ~req_id
       (Wire.Err { code = Wire.Bad_request; message; retryable = false }))

let session_expired =
  Wire.Err
    {
      code = Wire.Session_expired;
      message = "session lease expired";
      retryable = false;
    }

let dispatch_locked t conn ({ Wire.req_id; body } : Wire.request) =
  ignore (reap_locked t);
  match body with
  | Wire.Hello { protocol; client; resume } ->
    let rbody = hello_locked t conn ~protocol ~client ~resume in
    Reply (reply conn ~req_id rbody)
  | _ when t.is_draining -> Reply (reply conn ~req_id Wire.Draining)
  | _ -> (
    match conn.Conn.session with
    | None -> bad_request conn ~req_id "request before hello"
    | Some sid -> (
      match Hashtbl.find_opt t.sessions sid with
      | None ->
        conn.Conn.session <- None;
        Reply (reply conn ~req_id session_expired)
      | Some s ->
        if Int64.compare req_id 0L <= 0 then
          bad_request conn ~req_id "request ids must be positive"
        else if Int64.equal req_id s.last_req then begin
          (* replay of the request whose response was lost: answer from
             the cache, never re-apply *)
          touch_locked t s;
          Reply s.last_frame
        end
        else if Int64.compare req_id s.last_req < 0 then
          bad_request conn ~req_id "stale request id"
        else if t.in_flight >= max_in_flight then begin
          t.busy_rejects <- t.busy_rejects + 1;
          Reply
            (reply conn ~req_id (Wire.Busy { retry_after = busy_retry_after }))
        end
        else begin
          t.in_flight <- t.in_flight + 1;
          s.running <- s.running + 1;
          let rbody =
            (* a request must never take the server down: engine bugs
               surface as an error response on this one session *)
            try execute_locked t conn s body
            with exn ->
              Wire.Err
                {
                  code = Wire.Server_error;
                  message = Printexc.to_string exn;
                  retryable = false;
                }
          in
          t.in_flight <- t.in_flight - 1;
          s.running <- s.running - 1;
          t.served <- t.served + 1;
          let frame = reply conn ~req_id rbody in
          let live = Hashtbl.mem t.sessions s.sid in
          if live then begin
            s.last_req <- req_id;
            s.last_frame <- frame;
            touch_locked t s
          end
          else if s.running = 0 then begin
            (* the session has ended (a [Bye], on this connection or
               another) and this was its last running request: free
               whatever a wait took, then release the client name *)
            ignore (Server.release t.eng ~client:s.client);
            forget_client_locked t s
          end;
          match body with
          | Wire.Bye -> Reply_close frame
          | _ when not live ->
            (* what this request took has just been freed *)
            Reply (reply conn ~req_id session_expired)
          | _ -> Reply frame
        end))

(* The frame is checked and its request decoded in place, outside the
   mutex; the response is encoded under it, into the connection's
   buffer. *)
let on_buffer t conn buf ~len =
  let s = Bytes.unsafe_to_string buf in
  match Frame.check s ~len with
  | Error _ ->
    (* framing is gone: no way to answer reliably, drop the connection
       and let the lease-protected session carry the client over *)
    Close
  | Ok n -> (
    match Wire.decode_request_sub s ~pos:Frame.header_size ~len:n with
    | Error e -> bad_request conn ~req_id:0L (Seed_error.to_string e)
    | Ok req -> (
      Mutex.lock t.m;
      match dispatch_locked t conn req with
      | action ->
        Mutex.unlock t.m;
        action
      | exception exn ->
        Mutex.unlock t.m;
        raise exn))

let on_frame t conn frame =
  on_buffer t conn (Bytes.unsafe_of_string frame) ~len:(String.length frame)

let reap t =
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () -> reap_locked t)

let drain t =
  Mutex.lock t.m;
  t.is_draining <- true;
  Mutex.unlock t.m

let stats t =
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () -> stats_locked t)

(* --- TCP front end ---------------------------------------------------- *)

type listener = {
  core : t;
  sock : Unix.file_descr;
  lport : int;
  lm : Mutex.t;
  mutable stop : bool;
  mutable handlers : Thread.t list;
  mutable conn_fds : Unix.file_descr list;
  mutable accept_thread : Thread.t option;
  mutable reaper_thread : Thread.t option;
}

let register_conn l fd =
  Mutex.lock l.lm;
  l.conn_fds <- fd :: l.conn_fds;
  Mutex.unlock l.lm

let unregister_conn l fd =
  Mutex.lock l.lm;
  l.conn_fds <- List.filter (fun f -> f != fd) l.conn_fds;
  Mutex.unlock l.lm

let handle_conn l fd =
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let rd = Transport.reader fd in
  let tr = Transport.of_reader rd in
  let conn = open_conn l.core in
  let rec loop () =
    match Transport.read_frame rd ~timeout:(Some 0.25) with
    | Error (Seed_error.Io_transient _) -> if l.stop then () else loop ()
    | Error _ -> ()
    | Ok len -> (
      match on_buffer l.core conn (Transport.frame_buffer rd) ~len with
      | Reply r -> ( match tr.Transport.send r with Ok () -> loop () | Error _ -> ())
      | Reply_close r -> ignore (tr.Transport.send r)
      | Close -> ())
  in
  (try loop () with _ -> ());
  close_conn l.core conn;
  tr.Transport.close ();
  unregister_conn l fd

let serve ?(host = "127.0.0.1") ~port core =
  match
    Seed_error.wrap_io (fun () ->
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        (try
           Unix.setsockopt sock Unix.SO_REUSEADDR true;
           Unix.bind sock
             (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
           Unix.listen sock 64
         with e ->
           (try Unix.close sock with Unix.Unix_error _ -> ());
           raise e);
        let lport =
          match Unix.getsockname sock with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> port
        in
        (sock, lport))
  with
  | Error e -> Error e
  | Ok (sock, lport) ->
    let l =
      {
        core;
        sock;
        lport;
        lm = Mutex.create ();
        stop = false;
        handlers = [];
        conn_fds = [];
        accept_thread = None;
        reaper_thread = None;
      }
    in
    (* the listening socket is polled non-blocking so the loop notices
       [l.stop]: a thread blocked inside [accept] would not be woken by
       another thread closing the socket, and shutdown would hang on the
       join *)
    Unix.set_nonblock sock;
    let accept_loop () =
      while not l.stop do
        match Unix.select [ l.sock ] [] [] 0.25 with
        | [], _, _ -> ()
        | _ -> (
          match Unix.accept l.sock with
          | fd, _ ->
            Unix.clear_nonblock fd;
            if core.is_draining then (
              try Unix.close fd with Unix.Unix_error _ -> ())
            else begin
              register_conn l fd;
              let th = Thread.create (fun () -> handle_conn l fd) () in
              Mutex.lock l.lm;
              l.handlers <- th :: l.handlers;
              Mutex.unlock l.lm
            end
          | exception
              Unix.Unix_error
                ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception _ -> if not l.stop then Thread.delay 0.05
      done
    in
    let reaper_loop () =
      while not l.stop do
        Thread.delay 0.25;
        ignore (reap core)
      done
    in
    l.accept_thread <- Some (Thread.create accept_loop ());
    l.reaper_thread <- Some (Thread.create reaper_loop ());
    Ok l

let port l = l.lport

let shutdown ?(grace = 0.2) l =
  (* 1. no new work: refuse connections and answer requests [Draining] *)
  drain l.core;
  (* 2. let in-flight requests finish *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while l.core.in_flight > 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  (* 3. a short window in which queued clients still get the retryable
     [Draining] answer instead of a connection reset *)
  if grace > 0.0 then Thread.delay grace;
  (* 4. tear down: unblock accept by closing the listening socket, stop
     handler loops, close their connections, join everything *)
  l.stop <- true;
  (match l.accept_thread with Some th -> Thread.join th | None -> ());
  (try Unix.close l.sock with Unix.Unix_error _ -> ());
  (match l.reaper_thread with Some th -> Thread.join th | None -> ());
  Mutex.lock l.lm;
  let hs = l.handlers in
  Mutex.unlock l.lm;
  List.iter Thread.join hs;
  Mutex.lock l.lm;
  let fds = l.conn_fds in
  l.conn_fds <- [];
  Mutex.unlock l.lm;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds
