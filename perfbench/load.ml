(* The load generator: closed-loop clients, each on its own TCP
   connection and thread, sending its next request only after the reply
   to the previous one. Every answer is checked against the model. *)

module Net_client = Seed_net.Net_client
module Transport = Seed_net.Transport
module Wire = Seed_net.Wire
module K = Server_proc

type workload = Edit | Browse | Review

(* run phases: the clients read this before every request (cycle) *)
let warmup = 0
let measure = 1
let finish = 2

let max_recorded_reads = 1000
let max_recorded_batches = 300

type client = {
  id : int;
  share : Gen.share;
  lat : Probe.samples array;  (* seconds, by kind, measured window only *)
  rounds : Probe.samples;
      (* seconds per round of the workload's fixed request schedule *)
  resp_bytes : Probe.samples array;  (* reply frame bytes, traced only *)
  mutable current : int;  (* kind of the request in flight, -1 = none *)
  mutable attempted : int;  (* all phases *)
  mutable failed : int;  (* errors and wrong answers, all phases *)
  mutable wrong : int;  (* wrong answers *)
  mutable locked : int;  (* [Locked] refusals *)
  mutable notes : string list;  (* the first few failures *)
  mutable reads : Gen.read list;  (* measured reads, for the direct replay *)
  mutable n_reads : int;
  mutable plant_wrong : bool;  (* self-test: corrupt the next answer *)
}

(* acknowledged check-ins in acknowledgement order, for the replay *)
type acked = { seq : int; names : string list; ops : Seed_server.Protocol.op list }

let ack_seq = Atomic.make 0

let note c msg =
  c.failed <- c.failed + 1;
  if List.length c.notes < 5 then c.notes <- msg :: c.notes

let traced_dial c ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | exception Unix.Unix_error (e, fn, _) ->
    Unix.close fd;
    Error
      (Seed_util.Seed_error.Io_transient
         (Printf.sprintf "connect: %s: %s" fn (Unix.error_message e)))
  | () ->
    let tr = Transport.of_fd fd in
    Ok
      (Transport.of_functions ~send:tr.Transport.send
         ~recv:(fun ~timeout ->
           let r = tr.Transport.recv ~timeout in
           (match r with
           | Ok frame when c.current >= 0 ->
             Probe.add c.resp_bytes.(c.current) (float (String.length frame))
           | _ -> ());
           r)
         ~close:tr.Transport.close)

let run_client ~workload ~port ~traced ~phase ~search_pool ~acked c =
  let cl =
    let client = Printf.sprintf "bench%d" c.id in
    if traced then Net_client.create ~client ~dial:(traced_dial c ~port) ()
    else Net_client.connect_tcp ~client ~host:"127.0.0.1" ~port ()
  in
  let m = c.share.Gen.model in
  let rng = c.share.Gen.rng in
  let measuring = ref false in
  let request kind f =
    c.current <- kind;
    c.attempted <- c.attempted + 1;
    let t0 = Probe.now () in
    let r = f () in
    let dt = Probe.now () -. t0 in
    c.current <- -1;
    if !measuring then Probe.add c.lat.(kind) dt;
    r
  in
  let failed what e =
    (match e with
    | Net_client.Remote { Wire.code = Wire.Locked; _ } -> c.locked <- c.locked + 1
    | _ -> ());
    note c (Format.asprintf "%s: %a" what Net_client.pp_error e)
  in
  let check what got want =
    let got =
      if c.plant_wrong then begin
        c.plant_wrong <- false;
        "planted-wrong-answer" :: got
      end
      else got
    in
    if got <> want then begin
      c.wrong <- c.wrong + 1;
      note c (Printf.sprintf "%s: wrong answer" what)
    end
  in
  let read (r : Gen.read) =
    if !measuring && c.n_reads < max_recorded_reads then begin
      c.reads <- r :: c.reads;
      c.n_reads <- c.n_reads + 1
    end;
    match r with
    | Gen.Find (name, want) -> (
      match request K.k_find (fun () -> Net_client.find cl name) with
      | Ok got ->
        check ("find " ^ name) (Option.to_list got) (Option.to_list want)
      | Error e -> failed ("find " ^ name) e)
    | Gen.Select (cls, want) -> (
      match request K.k_select (fun () -> Net_client.select_isa cl cls) with
      | Ok got -> check ("select_isa " ^ cls) got want
      | Error e -> failed ("select_isa " ^ cls) e)
    | Gen.Search (path, needles, want) -> (
      match
        request K.k_search (fun () -> Net_client.search cl ~path needles)
      with
      | Ok got -> check ("search " ^ String.concat "&" needles) got want
      | Error e -> failed "search" e)
  in
  let write (b : Gen.batch) =
    match request K.k_checkout (fun () -> Net_client.checkout cl b.names) with
    | Error e -> failed "checkout" e
    | Ok () -> (
      match request K.k_checkin (fun () -> Net_client.checkin cl b.ops) with
      | Ok () ->
        b.commit ();
        let seq = Atomic.fetch_and_add ack_seq 1 in
        if !measuring then begin
          Mutex.lock (fst acked);
          if List.length !(snd acked) < max_recorded_batches then
            snd acked := { seq; names = b.names; ops = b.ops } :: !(snd acked);
          Mutex.unlock (fst acked)
        end
      | Error e ->
        failed "checkin" e;
        ignore (Net_client.release cl))
  in
  let find_model name =
    match Hashtbl.find_opt m.Gen.by_name name with
    | Some "Action" -> Gen.Find (name, Some "Action")
    | _ ->
      let d = m.Gen.docs.(int_of_string (String.sub name 3 6)) in
      Gen.Find (name, Some d.Gen.cls)
  in
  let selects = Gen.selects m in
  (* each client walks the search sets in its own seeded order, so every
     query is sent equally often and every round sends the same kinds *)
  let order = Array.copy search_pool in
  for i = Array.length order - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let next = ref 0 in
  let searches () =
    incr next;
    order.(!next mod Array.length order)
  in
  let find () = read (Gen.find_any rng m) in
  let round () =
    match workload with
    | Edit ->
      (* one edit cycle: the tool retrieves each object by name, checks
         them out, and checks its changes in *)
      let b = Gen.edit_batch c.share in
      List.iter (fun n -> read (find_model n)) b.names;
      write b
    | Browse ->
      (* five finds, four searches of different kinds, one select_isa *)
      let s = searches () in
      find (); read s.Gen.selective; find (); read s.conjunctive; find ();
      read selects.(!next mod 2);
      find (); read s.in_description; find (); read s.in_keywords
    | Review ->
      (* eight slots: one check-out and check-in, five finds, two
         searches *)
      let s = searches () in
      write (Gen.rewrite_batch c.share);
      find (); read s.Gen.selective; find (); find (); read s.in_keywords;
      find (); find ()
  in
  let rec loop () =
    let p = Atomic.get phase in
    if p <> finish then begin
      measuring := p = measure;
      let t0 = Probe.now () in
      round ();
      if !measuring then Probe.add c.rounds (Probe.now () -. t0);
      loop ()
    end
  in
  (try loop () with e -> note c ("client stopped: " ^ Printexc.to_string e));
  Net_client.close cl

let client ~id share =
  {
    id;
    share;
    lat = Array.init (Array.length K.kinds) (fun _ -> Probe.samples ());
    rounds = Probe.samples ();
    resp_bytes = Array.init (Array.length K.kinds) (fun _ -> Probe.samples ());
    current = -1;
    attempted = 0;
    failed = 0;
    wrong = 0;
    locked = 0;
    notes = [];
    reads = [];
    n_reads = 0;
    plant_wrong = false;
  }
