(* Network chaos soak.

   Drives the transport-agnostic server core ([Net_server.on_frame])
   over a durable store with a population of simulated clients whose
   frames pass, in both directions, through seeded [Faulty_transport]
   injectors: frames are dropped, duplicated, bit-flipped, truncated
   and delayed; connections drop; clients die holding locks; the
   virtual clock jumps past lease expiry mid-conversation. Everything
   derives from [--seed], so a failure replays bit-for-bit.

   Each client follows the real protocol discipline: a request keeps
   its id across retransmits, reconnects resume the session, and a
   check-in whose session expired mid-flight is never blindly replayed
   — the client re-verifies by name, exactly as the lease contract
   demands. The invariants checked every iteration:

   - no schedule crashes or wedges the server: every request reaches a
     definitive response in a bounded number of attempts;
   - exactly-once check-in: the server's applied-check-in counter
     equals the clients' confirmed count — no lost wire schedule can
     double-apply a replayed batch or lose an acknowledged one;
   - confirmed objects stay visible: a [Find] for any acknowledged
     creation succeeds, and [Select_isa Thing] lists them all;
   - no lease outlives its TTL: once a dead client's window lapses,
     the reaper has freed every lock it held; after the final sweep the
     session table and lock table are empty;
   - the store survives: flush, fsck healthy, reopen, fingerprint
     identical, consistency sweep clean. *)

open Seed_util
module DB = Seed_core.Database
module Db_state = Seed_core.Db_state
module View = Seed_core.View
module Item = Seed_core.Item
module Persist = Seed_core.Persist
module Store = Seed_storage.Store
module Server = Seed_server.Server
module Protocol = Seed_server.Protocol
module NS = Seed_net.Net_server
module Wire = Seed_net.Wire
module Frame = Seed_net.Frame
module FT = Seed_net.Faulty_transport

let schema () = Spades_tool.Spec_model.schema

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "seed_chaos_net_%d_%d" (Unix.getpid ()) !counter)

exception Chaos_failure of string

let failf fmt = Printf.ksprintf (fun m -> raise (Chaos_failure m)) fmt

(* ------------------------------------------------------------------ *)
(* Simulated clients                                                    *)
(* ------------------------------------------------------------------ *)

type client = {
  name : string;
  c2s : FT.t;  (* faults on the client -> server direction *)
  s2c : FT.t;  (* faults on the server -> client direction *)
  mutable conn : NS.Conn.t option;
  mutable authed : bool;  (* the current connection has said hello *)
  mutable session : (int64 * int64) option;  (* id, resume token *)
  mutable next_id : int64;  (* never reused, even across sessions *)
  mutable objects : string list;  (* names with a confirmed create *)
  mutable nobj : int;
  mutable holds_shared : bool;
  mutable dead : bool;
}

type env = {
  core : NS.t;
  srv : Server.t;
  clock : float ref;
  ttl : float;
  mutable deaths : (string * float) list;  (* client, lease deadline *)
}

let resp_name = function
  | Wire.Welcome _ -> "welcome"
  | Wire.Done -> "done"
  | Wire.Found _ -> "found"
  | Wire.Names _ -> "names"
  | Wire.Stats_reply _ -> "stats"
  | Wire.Pong -> "pong"
  | Wire.Busy _ -> "busy"
  | Wire.Draining -> "draining"
  | Wire.Err w -> Printf.sprintf "err(%s)" w.Wire.message

let fresh_id cl =
  cl.next_id <- Int64.add cl.next_id 1L;
  cl.next_id

let req id body = Frame.encode (Wire.encode_request { Wire.req_id = id; body })

let drop_conn env cl =
  (match cl.conn with Some c -> NS.close_conn env.core c | None -> ());
  cl.conn <- None;
  cl.authed <- false;
  (* frames delayed inside a dead connection die with it, as on TCP *)
  FT.cut cl.c2s;
  FT.cut cl.s2c

(* One encoded frame through the injectors to the core and back.
   [clean = true] bypasses the injectors (the bounded escape hatch that
   guarantees every exchange terminates) but first flushes any frames
   the injectors were holding, so a delayed copy can never jump a
   session boundary. *)
let deliver env cl ~clean frame =
  let conn = match cl.conn with Some c -> c | None -> assert false in
  let inbound =
    if clean then FT.flush cl.c2s @ [ frame ] else FT.apply cl.c2s frame
  in
  let outbound = ref (if clean then FT.flush cl.s2c else []) in
  let closed = ref false in
  List.iter
    (fun f ->
      if not !closed then
        match NS.on_frame env.core conn f with
        | NS.Reply r ->
          outbound := !outbound @ (if clean then [ r ] else FT.apply cl.s2c r)
        | NS.Reply_close r ->
          outbound := !outbound @ (if clean then [ r ] else FT.apply cl.s2c r);
          closed := true
        | NS.Close -> closed := true)
    inbound;
  if !closed then drop_conn env cl;
  List.filter_map
    (fun f ->
      match Frame.decode f with
      | Error _ -> None  (* a corrupted reply is a lost reply *)
      | Ok p -> (
        match Wire.decode_response p with Ok r -> Some r | Error _ -> None))
    !outbound

(* Make sure [cl] has a connection whose hello has been answered.
   Returns [`Ready] if the previous session survived (or there was
   none in flight), [`Reset] if it expired and a fresh one had to be
   established — the caller's replay safety is gone in that case. *)
let ensure_session env cl ~clean0 =
  let reset = ref false in
  let rec go attempt =
    if attempt > 40 then
      failf "client %s: could not establish a session in 40 attempts" cl.name;
    if cl.authed && cl.conn <> None then ()
    else begin
      if cl.conn = None then cl.conn <- Some (NS.open_conn env.core);
      let clean = clean0 || attempt > 8 in
      let id = fresh_id cl in
      let resps =
        deliver env cl ~clean
          (req id
             (Wire.Hello
                {
                  protocol = Frame.version;
                  client = cl.name;
                  resume = cl.session;
                }))
      in
      match List.find_opt (fun r -> Int64.equal r.Wire.rsp_id id) resps with
      | Some { Wire.rbody = Wire.Welcome { session; token; _ }; _ } ->
        cl.session <- Some (session, token);
        cl.authed <- true
      | Some { Wire.rbody = Wire.Err { code = Wire.Session_expired; _ }; _ } ->
        cl.session <- None;
        cl.holds_shared <- false;
        reset := true;
        go (attempt + 1)
      | Some { Wire.rbody = Wire.Err { code = Wire.Already_connected; _ }; _ }
        ->
        (* the Welcome for an earlier hello was lost on the wire: the
           server holds a session we have no token for. Nothing to do
           but let its lease run out. *)
        env.clock := !(env.clock) +. env.ttl +. 0.01;
        ignore (NS.reap env.core);
        reset := true;
        go (attempt + 1)
      | Some { Wire.rbody = Wire.Err w; _ } ->
        failf "client %s: hello refused: %s" cl.name w.Wire.message
      | Some _ -> failf "client %s: unexpected hello response" cl.name
      | None -> go (attempt + 1)
    end
  in
  go 1;
  if !reset then `Reset else `Ready

(* One request to a definitive response, retransmitting the same id
   across reconnects and resumes. Returns [None] when the session
   expired after the request may already have been delivered — the one
   case where replaying would risk a double apply, so the caller must
   re-verify instead. *)
let rpc env cl body =
  let id = fresh_id cl in
  let frame = req id body in
  let sent = ref false in
  let rec go attempt =
    if attempt > 40 then
      failf "client %s: no definitive reply to %Ld in 40 attempts" cl.name id;
    let clean = attempt > 8 in
    match ensure_session env cl ~clean0:clean with
    | `Reset when !sent -> None
    | `Reset | `Ready -> (
      sent := true;
      let resps = deliver env cl ~clean frame in
      match List.find_opt (fun r -> Int64.equal r.Wire.rsp_id id) resps with
      | Some { Wire.rbody = Wire.Err { code = Wire.Session_expired; _ }; _ } ->
        cl.session <- None;
        cl.authed <- false;
        cl.holds_shared <- false;
        None
      | Some { Wire.rbody = Wire.Err { code = Wire.Bad_request; _ }; _ } ->
        (* our id is never genuinely stale (ids are monotonic and only
           executed requests advance last_req), so Bad_request means
           the connection lost its authentication — e.g. the
           Session_expired answer to the previous transmit was itself
           dropped. Re-establish and retry. *)
        cl.authed <- false;
        go (attempt + 1)
      | Some r -> Some r.Wire.rbody
      | None -> go (attempt + 1))
  in
  go 1

(* ------------------------------------------------------------------ *)
(* Workload actions                                                     *)
(* ------------------------------------------------------------------ *)

let classes = [| "Thing"; "Data"; "Action"; "InputData"; "OutputData" |]
let data_classes = [| "Data"; "InputData"; "OutputData" |]
let pick rng a = a.(Random.State.int rng (Array.length a))

let do_checkin env rng expected cl =
  let n = cl.nobj in
  cl.nobj <- cl.nobj + 1;
  let name = Printf.sprintf "%s_o%d" cl.name n in
  let ops =
    [ Protocol.Create_object { cls = pick rng classes; name; pattern = false } ]
  in
  let ops =
    if cl.holds_shared && Random.State.bool rng then
      ops
      @ [ Protocol.Reclassify_obj { name = "Shared"; to_ = pick rng data_classes } ]
    else ops
  in
  let confirm () =
    incr expected;
    cl.objects <- name :: cl.objects
  in
  match rpc env cl (Wire.Checkin ops) with
  | Some Wire.Done ->
    confirm ();
    (* a successful check-in releases the client's locks *)
    cl.holds_shared <- false
  | Some (Wire.Err _) | Some (Wire.Busy _) | Some Wire.Draining ->
    ()  (* definitively not applied *)
  | Some _ -> failf "client %s: unexpected checkin response" cl.name
  | None ->
    (* session expired with the batch possibly delivered: re-verify by
       name — the object is unique to this request, so its existence
       decides whether the batch applied *)
    let rec verify attempt =
      if attempt > 10 then failf "client %s: cannot verify %s" cl.name name;
      match rpc env cl (Wire.Find name) with
      | Some (Wire.Found (Some _)) -> confirm ()
      | Some (Wire.Found None) -> ()
      | None -> verify (attempt + 1)
      | Some _ -> failf "client %s: unexpected find response" cl.name
    in
    verify 1

let do_checkout env rng cl =
  let names =
    if cl.objects = [] || Random.State.int rng 3 = 0 then [ "Shared" ]
    else [ List.nth cl.objects (Random.State.int rng (List.length cl.objects)) ]
  in
  let wait_timeout =
    if Random.State.int rng 4 = 0 then Some 1.0 else None
  in
  match rpc env cl (Wire.Checkout { names; wait_timeout }) with
  | Some Wire.Done -> if List.mem "Shared" names then cl.holds_shared <- true
  | Some (Wire.Err _) | Some (Wire.Busy _) | Some Wire.Draining | None -> ()
  | Some _ -> failf "client %s: unexpected checkout response" cl.name

let do_release env cl =
  match rpc env cl Wire.Release with
  | Some Wire.Done -> cl.holds_shared <- false
  | Some (Wire.Err _) | None -> ()
  | Some _ -> failf "client %s: unexpected release response" cl.name

let do_read env rng cl =
  match Random.State.int rng 3 with
  | 0 when cl.objects <> [] ->
    (* every acknowledged creation must stay visible *)
    let name =
      List.nth cl.objects (Random.State.int rng (List.length cl.objects))
    in
    (match rpc env cl (Wire.Find name) with
    | Some (Wire.Found (Some _)) -> ()
    | Some (Wire.Found None) ->
      failf "client %s: confirmed object %s vanished" cl.name name
    | None | Some (Wire.Err _) -> ()
    | Some _ -> failf "client %s: unexpected find response" cl.name)
  | 1 -> (
    match rpc env cl (Wire.Select_isa "Thing") with
    | Some (Wire.Names names) ->
      List.iter
        (fun n ->
          if not (List.mem n names) then
            failf "client %s: %s missing from Select_isa Thing" cl.name n)
        cl.objects
    | None | Some (Wire.Err _) -> ()
    | Some _ -> failf "client %s: unexpected select response" cl.name)
  | _ -> (
    match rpc env cl Wire.Ping with
    | Some Wire.Pong | None -> ()
    | Some r -> failf "client %s: unexpected ping response %s" cl.name (resp_name r))

let do_bye env cl =
  match rpc env cl Wire.Bye with
  | Some Wire.Done ->
    cl.session <- None;
    cl.authed <- false;
    cl.holds_shared <- false
  | Some (Wire.Err _) | None -> ()
  | Some _ -> failf "client %s: unexpected bye response" cl.name

(* ------------------------------------------------------------------ *)
(* Store fingerprint (semantic dump, as in soak.ml)                     *)
(* ------------------------------------------------------------------ *)

let fingerprint db =
  let st = DB.raw db in
  let v = View.current st in
  let buf = Buffer.create 1024 in
  Db_state.fold_items st ~init:[] ~f:(fun acc it -> it :: acc)
  |> List.sort (fun (a : Item.t) b -> Ident.compare a.Item.id b.Item.id)
  |> List.iter (fun (it : Item.t) ->
         match View.state v it with
         | None -> ()
         | Some (Item.Obj o) ->
           Buffer.add_string buf
             (Printf.sprintf "O%d:%s:%s:%b;"
                (Ident.to_int it.Item.id)
                (Option.value o.Item.name ~default:"-")
                o.Item.cls o.Item.deleted)
         | Some (Item.Rel r) ->
           Buffer.add_string buf
             (Printf.sprintf "R%d:%s;" (Ident.to_int it.Item.id) r.Item.assoc));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* One iteration                                                        *)
(* ------------------------------------------------------------------ *)

let profiles =
  [|
    FT.quiet;
    { FT.quiet with FT.drop = 0.12; dup = 0.08 };
    { FT.quiet with FT.corrupt = 0.08; truncate = 0.04; delay = 0.15 };
    { FT.quiet with FT.drop = 0.08; dup = 0.06; corrupt = 0.06; truncate = 0.03; delay = 0.1 };
  |]

let iteration ~seed ~iter ~steps ~nclients ~verbose =
  let rng = Random.State.make [| 0x5EED; seed; iter |] in
  let dir = tmp_dir () in
  let s = Seed_error.ok_exn (Persist.Session.open_ ~dir ~schema:(schema ()) ()) in
  let db = Persist.Session.db s in
  ignore (Seed_error.ok_exn (DB.create_object db ~cls:"Data" ~name:"Shared" ()));
  Seed_error.ok_exn (Persist.Session.flush s);
  let clock = ref 0.0 in
  let ttl = 5.0 in
  let srv = Server.of_session s in
  let core =
    NS.create
      ~config:{ NS.default_config with NS.session_ttl = ttl }
      ~now:(fun () -> !clock)
      ~sleep:(fun d -> clock := !clock +. d)
      srv
  in
  let env = { core; srv; clock; ttl; deaths = [] } in
  let mk_client i =
    let profile () = profiles.(Random.State.int rng (Array.length profiles)) in
    {
      name = Printf.sprintf "c%d" i;
      c2s = FT.create { (profile ()) with FT.seed = Random.State.bits rng };
      s2c = FT.create { (profile ()) with FT.seed = Random.State.bits rng };
      conn = None;
      authed = false;
      session = None;
      next_id = 0L;
      objects = [];
      nobj = 0;
      holds_shared = false;
      dead = false;
    }
  in
  let clients = Array.init nclients mk_client in
  let expected = ref 0 in
  let kills = ref 0 in
  let live () =
    Array.to_list clients |> List.filter (fun c -> not c.dead)
  in
  for _step = 1 to steps do
    (match live () with
    | [] -> ()
    | ls -> (
      let cl = List.nth ls (Random.State.int rng (List.length ls)) in
      match Random.State.int rng 16 with
      | 0 | 1 | 2 | 3 | 4 -> do_checkin env rng expected cl
      | 5 | 6 | 7 -> do_checkout env rng cl
      | 8 -> do_release env cl
      | 9 | 10 | 11 -> do_read env rng cl
      | 12 ->
        (* client-side disconnect without bye: the session lingers and
           the next request resumes it *)
        drop_conn env cl
      | 13 -> do_bye env cl
      | 14 ->
        clock := !clock +. (Random.State.float rng (ttl /. 2.0));
        if Random.State.int rng 8 = 0 then
          (* a big jump: everything unrefreshed expires *)
          clock := !clock +. ttl +. 0.1;
        ignore (NS.reap env.core)
      | _ ->
        if !kills < nclients - 1 && cl.session <> None then begin
          (* sudden death, possibly holding locks: only the lease can
             free them *)
          incr kills;
          cl.dead <- true;
          drop_conn env cl;
          env.deaths <- (cl.name, !clock +. ttl) :: env.deaths
        end));
    (* a dead client's locks must be gone once its lease deadline
       passes *)
    List.iter
      (fun (name, deadline) ->
        if !clock > deadline +. 0.5 then begin
          ignore (NS.reap env.core);
          match Server.locked_by env.srv ~client:name with
          | [] -> ()
          | l ->
            failf "iteration %d: dead client %s still holds [%s] at %.2f"
              iter name (String.concat "; " l) !clock
        end)
      env.deaths
  done;
  (* exactly-once: every confirmed batch applied once, nothing else *)
  let applied = Server.checkin_count srv in
  if applied <> !expected then
    failf
      "iteration %d: server applied %d check-ins, clients confirmed %d — a \
       replay was double-applied or an acknowledged batch was lost"
      iter applied !expected;
  (* final lease sweep: everything expires, the reaper frees it all *)
  clock := !clock +. ttl +. 1.0;
  ignore (NS.reap env.core);
  let st = NS.stats core in
  if st.Wire.sv_sessions <> 0 then
    failf "iteration %d: %d sessions survive the final sweep" iter
      st.Wire.sv_sessions;
  let ls = Server.lock_stats srv in
  if
    ls.Seed_server.Lock_table.locks_held <> 0
    || ls.Seed_server.Lock_table.waiters <> 0
  then
    failf
      "iteration %d: lock table not empty after final sweep (held %d \
       waiters %d)"
      iter ls.Seed_server.Lock_table.locks_held
      ls.Seed_server.Lock_table.waiters;
  (* the store survived the schedule: durable, fsck-clean, reopenable *)
  Seed_error.ok_exn (Persist.Session.flush s);
  let fp = fingerprint db in
  (match Seed_core.Consistency.check_database (View.current (DB.raw db)) with
  | Ok () -> ()
  | Error e ->
    failf "iteration %d: consistency sweep failed: %s" iter
      (Seed_error.to_string e));
  Persist.Session.close s;
  let report = Seed_error.ok_exn (Store.fsck dir) in
  if not report.Store.fsck_healthy then
    failf "iteration %d: store unhealthy after the run:\n%s" iter
      (Format.asprintf "%a" Store.pp_fsck_report report);
  let s2 =
    Seed_error.ok_exn (Persist.Session.open_ ~dir ~schema:(schema ()) ())
  in
  if not (String.equal (fingerprint (Persist.Session.db s2)) fp) then
    failf "iteration %d: state differs after reopen" iter;
  Persist.Session.close s2;
  if verbose then begin
    let faults =
      Array.fold_left
        (fun n c -> n + FT.injected c.c2s + FT.injected c.s2c)
        0 clients
    in
    Printf.printf
      "iter %3d: steps=%d clients=%d checkins=%d faults=%d kills=%d \
       reaped=%d served=%d busy=%d\n%!"
      iter steps nclients !expected faults !kills st.Wire.sv_reaped_sessions
      st.Wire.sv_served st.Wire.sv_busy_rejects
  end

let () =
  let iters = ref 25
  and seed = ref 42
  and steps = ref 120
  and nclients = ref 5
  and verbose = ref false in
  let spec =
    [
      ("--iters", Arg.Set_int iters, "N  number of iterations (default 25)");
      ("--seed", Arg.Set_int seed, "N  base random seed (default 42)");
      ("--steps", Arg.Set_int steps, "N  workload steps per iteration (default 120)");
      ("--clients", Arg.Set_int nclients, "N  simulated clients (default 5)");
      ("-v", Arg.Set verbose, "  one line per iteration");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    "chaos_net [--iters N] [--seed N] [--steps N] [--clients N] [-v]";
  (try
     for i = 0 to !iters - 1 do
       iteration ~seed:!seed ~iter:i ~steps:!steps ~nclients:!nclients
         ~verbose:!verbose
     done
   with Chaos_failure m ->
     Printf.eprintf "NET CHAOS FAILURE: %s\n%!" m;
     exit 1);
  Printf.printf
    "net chaos OK: %d iterations x %d steps, %d clients, all invariants held\n%!"
    !iters !steps !nclients
