(* The server process: opens the store durably ([`Always_fsync]) through
   the counting I/O wrapper and serves it over TCP, either with
   [Net_server.serve] (untraced) or with the benchmark's own accept loop,
   which times every [Net_server.on_frame] call by request kind.

   It is driven over its stdin/stdout by the load generator:
   it prints [ready PORT] once serving; [mark] snapshots every counter
   at the start of the measured window (answer [marked]); [stop FILE]
   stops serving, writes the {!report} to FILE and exits (answer
   [stopped]); [quit] or end of input exits without a report. *)

open Seed_util
module DB = Seed_core.Database
module Persist = Seed_core.Persist
module Server = Seed_server.Server
module Net_server = Seed_net.Net_server
module Transport = Seed_net.Transport
module Wire = Seed_net.Wire

let kinds = [| "checkin"; "checkout"; "find"; "search"; "select" |]
let k_checkin = 0
let k_checkout = 1
let k_find = 2
let k_search = 3
let k_select = 4

let kind_of_body = function
  | Wire.Checkin _ -> Some k_checkin
  | Wire.Checkout _ -> Some k_checkout
  | Wire.Find _ -> Some k_find
  | Wire.Search _ -> Some k_search
  | Wire.Select_isa _ -> Some k_select
  | _ -> None

type counters = {
  db : DB.stats;
  net : Wire.server_stats;
  gc : Gc.stat;
  io : Probe.io_snap;
  journal : int;  (* journal records since the last compaction *)
  cpu_s : float;  (* process user + system time *)
}

type report = {
  open_s : float;  (* Persist.Session.open_ *)
  read_bytes_open : int;
  c_ready : counters;  (* serving, before any client *)
  c0 : counters;  (* at [mark] *)
  c1 : counters;  (* at [stop] *)
  hwm_ready_kib : int;  (* peak resident set once open and serving *)
  hwm_kib : int;  (* peak resident set at [stop] *)
  frame_s : Probe.samples array;  (* on_frame seconds by kind, traced *)
  write_s : Probe.samples;  (* storage write seconds in the window *)
  fsync_s : Probe.samples;
}

(* --- the traced accept loop ------------------------------------------ *)

type frames = { f_lock : Mutex.t; mutable by_kind : Probe.samples array }

let fresh_frames () = Array.init (Array.length kinds) (fun _ -> Probe.samples ())

let frame_kind frame =
  match Seed_net.Frame.decode frame with
  | Error _ -> None
  | Ok payload -> (
    match Wire.decode_request payload with
    | Ok r -> kind_of_body r.Wire.body
    | Error _ -> None)

(* The same per-connection loop as [Net_server.serve], with each
   [on_frame] call timed. Returns the port and a function that stops
   serving and joins every thread. *)
let traced_serve core frames =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen sock 16;
  let port =
    match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  let stop = Atomic.make false in
  let lock = Mutex.create () in
  let handlers = ref [] in
  let handle fd =
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    let tr = Transport.of_fd fd in
    let conn = Net_server.open_conn core in
    let rec loop () =
      match tr.Transport.recv ~timeout:(Some 0.25) with
      | Error (Seed_error.Io_transient _) -> if not (Atomic.get stop) then loop ()
      | Error _ -> ()
      | Ok frame -> (
        let t0 = Probe.now () in
        let action = Net_server.on_frame core conn frame in
        let dt = Probe.now () -. t0 in
        (match frame_kind frame with
        | Some k ->
          Mutex.lock frames.f_lock;
          Probe.add frames.by_kind.(k) dt;
          Mutex.unlock frames.f_lock
        | None -> ());
        match action with
        | Net_server.Reply r -> (
          match tr.Transport.send r with Ok () -> loop () | Error _ -> ())
        | Net_server.Reply_close r -> ignore (tr.Transport.send r)
        | Net_server.Close -> ())
    in
    (try loop () with _ -> ());
    Net_server.close_conn core conn;
    tr.Transport.close ()
  in
  let accept_loop () =
    while not (Atomic.get stop) do
      match Unix.select [ sock ] [] [] 0.1 with
      | [], _, _ -> ()
      | _ ->
        let fd, _ = Unix.accept ~cloexec:true sock in
        let th = Thread.create handle fd in
        Mutex.lock lock;
        handlers := th :: !handlers;
        Mutex.unlock lock
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  in
  let acceptor = Thread.create accept_loop () in
  let stop () =
    Atomic.set stop true;
    Thread.join acceptor;
    Unix.close sock;
    List.iter Thread.join !handlers
  in
  (port, stop)

(* --- the process ------------------------------------------------------- *)

let main ~dir ~traced =
  let io_c = Probe.io_counts ~timed:traced in
  let io = Probe.wrap_io io_c Seed_storage.Io.real in
  let t0 = Probe.now () in
  let session =
    Seed_error.ok_exn (Persist.Session.open_ ~dir ~io ~sync:`Always_fsync ())
  in
  let open_s = Probe.now () -. t0 in
  let read_bytes_open = Atomic.get io_c.Probe.read_bytes in
  let core = Net_server.create (Server.of_session session) in
  let frames = { f_lock = Mutex.create (); by_kind = fresh_frames () } in
  let port, stop_serving =
    if traced then traced_serve core frames
    else
      let l = Seed_error.ok_exn (Net_server.serve ~port:0 core) in
      (Net_server.port l, fun () -> Net_server.shutdown ~grace:0.0 l)
  in
  let counters () =
    {
      db = DB.stats (Persist.Session.db session);
      net = Net_server.stats core;
      gc = Gc.quick_stat ();
      io = Probe.io_snap io_c;
      journal = Persist.Session.journal_records session;
      cpu_s =
        (let t = Unix.times () in
         t.Unix.tms_utime +. t.Unix.tms_stime);
    }
  in
  let c_ready = counters () in
  let hwm_ready_kib = Probe.vm_hwm_kib () in
  Printf.printf "ready %d\n%!" port;
  let c0 = ref c_ready in
  let rec loop () =
    match In_channel.input_line stdin with
    | Some "mark" ->
      Mutex.lock frames.f_lock;
      frames.by_kind <- fresh_frames ();
      Mutex.unlock frames.f_lock;
      c0 := counters ();
      print_endline "marked";
      loop ()
    | Some l when String.starts_with ~prefix:"stop " l ->
      stop_serving ();
      let c1 = counters () in
      let c0 = !c0 in
      let r =
        {
          open_s;
          read_bytes_open;
          c_ready;
          c0;
          c1;
          hwm_ready_kib;
          hwm_kib = Probe.vm_hwm_kib ();
          frame_s = frames.by_kind;
          write_s =
            Probe.since io_c.write_s ~from:c0.io.s_write_n ~upto:c1.io.s_write_n;
          fsync_s =
            Probe.since io_c.fsync_s ~from:c0.io.s_fsync_n ~upto:c1.io.s_fsync_n;
        }
      in
      Out_channel.with_open_bin (String.sub l 5 (String.length l - 5))
        (fun oc -> Marshal.to_channel oc (r : report) []);
      Persist.Session.close session;
      print_endline "stopped"
    | Some "quit" | None ->
      stop_serving ();
      Persist.Session.close session
    | Some _ -> loop ()
  in
  loop ()

(* --- the load generator's handle on it --------------------------------- *)

type handle = { pid : int; to_srv : out_channel; from_srv : in_channel; port : int }

let expect h want =
  match In_channel.input_line h.from_srv with
  | Some l when l = want -> ()
  | Some l -> failwith (Printf.sprintf "server process said %S, expected %S" l want)
  | None -> failwith "server process ended unexpectedly"

let spawn ~dir ~traced =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "serve"; dir; (if traced then "1" else "0") |]
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let from_srv = Unix.in_channel_of_descr out_r in
  let to_srv = Unix.out_channel_of_descr in_w in
  let port =
    match In_channel.input_line from_srv with
    | Some l when String.starts_with ~prefix:"ready " l ->
      int_of_string (String.sub l 6 (String.length l - 6))
    | _ ->
      ignore (Unix.waitpid [] pid);
      failwith "server process failed to start"
  in
  { pid; to_srv; from_srv; port }

let send h line =
  output_string h.to_srv (line ^ "\n");
  flush h.to_srv

let reap h =
  close_out_noerr h.to_srv;
  close_in_noerr h.from_srv;
  match Unix.waitpid [] h.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "server process exited abnormally"

let mark h =
  send h "mark";
  expect h "marked"

let stop h ~file =
  send h ("stop " ^ file);
  expect h "stopped";
  reap h;
  In_channel.with_open_bin file (fun ic -> (Marshal.from_channel ic : report))

let quit h =
  send h "quit";
  reap h
