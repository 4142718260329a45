(* The served-path benchmark: a durable SEED server in its own process,
   driven over TCP by closed-loop clients, with every answer checked.

     perfbench --workload edit|browse|review --seed N --seconds S --trace 0|1
     perfbench self-test

   With --trace 0 the last line of stdout is the JSON result with the
   end-to-end metrics; with --trace 1 it carries the per-layer metrics
   of a traced run (see README.md). The exit code is non-zero when any
   answer was wrong or an acknowledged check-in is missing on reopen. *)

open Seed_util
module DB = Seed_core.Database
module Persist = Seed_core.Persist
module Query = Seed_core.Query
module View = Seed_core.View
module Server = Seed_server.Server
module K = Server_proc

let ok = Seed_error.ok_exn
let now = Probe.now
let fl = float_of_int
let ratio a b = if b = 0.0 then 0.0 else a /. b

type config = {
  name : string;
  kind : Load.workload;
  n_docs : int;
  clients : int;
  warmup_s : float;
  setups : int;
      (* set-ups in an untraced run, [setup_s] being their median: more
         where each is short and so noisier *)
}

(* Why these three: see README.md and BENCHMARK.json. *)
let workloads =
  [
    { name = "edit"; kind = Load.Edit; n_docs = 20_000; clients = 2; warmup_s = 1.0; setups = 3 };
    { name = "browse"; kind = Load.Browse; n_docs = 20_000; clients = 1; warmup_s = 1.0; setups = 3 };
    { name = "review"; kind = Load.Review; n_docs = 2_000; clients = 2; warmup_s = 1.0; setups = 9 };
  ]

(* --- files ------------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

(* live server processes, stopped on the way out whatever happens *)
let live : K.handle list ref = ref []

let spawn ~dir ~traced =
  let h = K.spawn ~dir ~traced in
  live := h :: !live;
  h

let forget h = live := List.filter (fun x -> x != h) !live

(* --- one measured phase ------------------------------------------------ *)

type phase = {
  p_setup : float list;
  p_window : float;
  p_clients : Load.client list;
  p_acked : Load.acked list;  (* acknowledgement order *)
  p_report : K.report;
  p_verify : string list;  (* mismatches found on reopen *)
  p_fsyncs : int * int;  (* I/O-wrapper count, st_txn_fsyncs *)
  p_store_bytes : int;  (* as set up: snapshot and journal tail *)
  p_user_bytes : int;
  p_steal : float;  (* share of CPU time stolen by the host in the window *)
  p_rebuild_s : float;
}

(* A fresh store: the initial state as one transaction, a snapshot, then
   the journal tail of [Gen.tail_updates] flushed rewrites. With [index]
   the text index is built before the tail, whose commits publish it to
   snapshot readers (enabling it alone changes only the working root). *)
let build_store ?io ~index m ~dir =
  let s =
    ok (Persist.Session.open_ ~dir ~schema:Gen.schema ?io ~sync:`Always_fsync ())
  in
  let db = Persist.Session.db s in
  Gen.populate m db;
  ok (Persist.Session.compact s);
  if index then DB.set_text_index_enabled db true;
  Gen.write_tail m db ~flush:(fun () -> Persist.Session.flush s);
  s

let run_phase cfg ~seed ~seconds ~traced ~setups ~work ~plant =
  let setup i =
    let dir = Filename.concat work (Printf.sprintf "store%d" i) in
    let t0 = now () in
    let m = Gen.make ~seed ~n_docs:cfg.n_docs in
    let s = build_store ~index:false m ~dir in
    let t_build = now () -. t0 in
    let user_bytes = Gen.user_bytes (Persist.Session.db s) in
    let t1 = now () in
    Persist.Session.close s;
    let t_close = now () -. t1 in
    let store_bytes = dir_bytes dir in
    let t2 = now () in
    let h = spawn ~dir ~traced in
    (t_build +. t_close +. (now () -. t2), m, dir, h, (store_bytes, user_bytes))
  in
  let extra =
    List.init (setups - 1) (fun i ->
        let t, _, dir, h, _ = setup i in
        K.quit h;
        forget h;
        rm_rf dir;
        t)
  in
  let t_last, m, dir, h, (store_bytes, user_bytes) = setup setups in
  (* the load generator's own set-up garbage must not be collected on
     the measured clock *)
  Gc.compact ();
  let search_pool = Gen.search_pool m in
  let phase = Atomic.make Load.warmup in
  let acked = (Mutex.create (), ref []) in
  let clients =
    List.init cfg.clients (fun id ->
        Load.client ~id (Gen.share m ~seed ~client:id ~clients:cfg.clients))
  in
  (match clients with c :: _ when plant -> c.Load.plant_wrong <- true | _ -> ());
  let threads =
    List.map
      (fun c ->
        Thread.create
          (fun () ->
            Load.run_client ~workload:cfg.kind ~port:h.K.port ~traced ~phase
              ~search_pool ~acked c)
          ())
      clients
  in
  Thread.delay cfg.warmup_s;
  K.mark h;
  let t0 = now () and steal0, all0 = Probe.cpu_ticks () in
  Atomic.set phase Load.measure;
  Thread.delay seconds;
  Atomic.set phase Load.finish;
  let window = now () -. t0 and steal1, all1 = Probe.cpu_ticks () in
  List.iter Thread.join threads;
  let report = K.stop h ~file:(Filename.concat work "report.bin") in
  forget h;
  let db = ok (Persist.load ~dir ()) in
  let created = List.concat_map (fun c -> c.Load.share.Gen.created) clients in
  let verify = Gen.verify_db m ~created db in
  let rebuild_s =
    if traced then begin
      DB.set_text_index_enabled db false;
      let t0 = now () in
      DB.set_text_index_enabled db true;
      now () -. t0
    end
    else 0.0
  in
  let p =
    {
      p_setup = extra @ [ t_last ];
      p_window = window;
      p_clients = clients;
      p_acked =
        List.sort (fun a b -> compare a.Load.seq b.Load.seq) !(snd acked);
      p_report = report;
      p_verify = verify;
      (* from quiescent points: serving had not begun, or had ended *)
      p_fsyncs =
        ( report.c1.io.s_fsyncs - report.c_ready.io.s_fsyncs,
          report.c1.db.st_txn_fsyncs - report.c_ready.db.st_txn_fsyncs );
      p_store_bytes = store_bytes;
      p_user_bytes = user_bytes;
      p_steal = ratio (fl (steal1 - steal0)) (fl (all1 - all0));
      p_rebuild_s = rebuild_s;
    }
  in
  rm_rf dir;
  p

(* --- metrics ----------------------------------------------------------- *)

let lat p k = Probe.merge (List.map (fun c -> c.Load.lat.(k)) p.p_clients)
let all_lat p = Probe.merge (List.concat_map (fun c -> Array.to_list c.Load.lat) p.p_clients)

let reads p =
  Probe.merge
    (List.concat_map
       (fun c -> [ c.Load.lat.(K.k_find); c.lat.(K.k_search); c.lat.(K.k_select) ])
       p.p_clients)

let sum_clients p f = List.fold_left (fun acc c -> acc + f c) 0 p.p_clients
let attempted p = sum_clients p (fun c -> c.Load.attempted)
let failed p = sum_clients p (fun c -> c.Load.failed)
let wrong p = sum_clients p (fun c -> c.Load.wrong)

let correct p =
  wrong p = 0 && p.p_verify = [] && fst p.p_fsyncs = snd p.p_fsyncs

let us x = x *. 1e6
let ms x = x *. 1e3

let rounds p = Probe.merge (List.map (fun c -> c.Load.rounds) p.p_clients)
let ops_per_s p = fl (Probe.count (all_lat p)) /. p.p_window

let served p = fl (p.p_report.c1.net.sv_served - p.p_report.c0.net.sv_served)

(* server process user+system seconds per request in the window *)
let cpu_per_op p =
  ratio (p.p_report.c1.cpu_s -. p.p_report.c0.cpu_s) (served p)

(* words the server allocated in the window *)
let allocated p =
  let words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  words p.p_report.c1.gc -. words p.p_report.c0.gc

(* The end-to-end metrics of BENCHMARK.json: every one reads the same on
   a slow and on a fast minute of the host, except set-up time, which
   must be there. Latency, throughput and CPU time are in the per-kind
   view and the per-layer metrics (see README.md for why). *)
let end_to_end p =
  let rep = p.p_report in
  [
    ("setup_s", "s", Probe.median p.p_setup);
    ( "alloc_kib_per_op", "KiB",
      ratio (allocated p *. fl (Sys.word_size / 8)) (served p) /. 1024.0 );
    ("success_ratio", "ratio", 1.0 -. ratio (fl (failed p)) (fl (attempted p)));
    ("rss_mib", "MiB", fl rep.hwm_ready_kib /. 1024.0);
    ( "store_bytes_per_user_byte", "ratio",
      ratio (fl p.p_store_bytes) (fl p.p_user_bytes) );
  ]

(* the client-observed view by request kind: [None] where the workload
   sends no such request *)
let per_kind p =
  let l k = lat p k in
  let opt s f = if Probe.count s = 0 then None else Some (f s) in
  let checkins = l K.k_checkin in
  [
    ("ops_per_s", "1/s", Some (ops_per_s p));
    ("round_p50_ms", "ms", Some (ms (Probe.pct (rounds p) 0.5)));
    ("round_p90_ms", "ms", Some (ms (Probe.pct (rounds p) 0.9)));
    ("checkins_per_s", "1/s", opt checkins (fun s -> fl (Probe.count s) /. p.p_window));
    ("checkin_p50_ms", "ms", opt checkins (fun s -> ms (Probe.pct s 0.5)));
    ("checkin_p99_ms", "ms", opt checkins (fun s -> ms (Probe.pct s 0.99)));
    ("checkout_p50_us", "us", opt (l K.k_checkout) (fun s -> us (Probe.pct s 0.5)));
    ("find_p50_us", "us", opt (l K.k_find) (fun s -> us (Probe.pct s 0.5)));
    ("search_p50_us", "us", opt (l K.k_search) (fun s -> us (Probe.pct s 0.5)));
    ("select_p50_us", "us", opt (l K.k_select) (fun s -> us (Probe.pct s 0.5)));
    ("read_p99_us", "us", opt (reads p) (fun s -> us (Probe.pct s 0.99)));
    ("fail_ratio", "ratio", Some (ratio (fl (failed p)) (fl (attempted p))));
  ]

let print_phase ~label p =
  Printf.printf
    "== %s: %d requests in %.2f s window, %d attempted in all, %d failed, %d \
     wrong; host steal %.1f%%\n"
    label (Probe.count (all_lat p)) p.p_window (attempted p) (failed p) (wrong p)
    (100.0 *. p.p_steal);
  List.iter
    (fun (n, u, v) -> Printf.printf "  %-26s %14.3f %s\n" n v u)
    (end_to_end p);
  List.iter
    (fun (n, u, v) ->
      match v with
      | Some v -> Printf.printf "  %-26s %14.3f %s\n" n v u
      | None -> Printf.printf "  %-26s %14s %s\n" n "n/a" u)
    (per_kind p);
  Printf.printf "  samples:";
  Array.iteri
    (fun k name -> Printf.printf " %s=%d" name (Probe.count (lat p k)))
    K.kinds;
  print_newline ();
  let rep = p.p_report in
  Printf.printf "  server: %d major GCs, %.2f s CPU in the window, %.1f us CPU per request\n"
    (rep.c1.gc.major_collections - rep.c0.gc.major_collections)
    (rep.c1.cpu_s -. rep.c0.cpu_s) (us (cpu_per_op p));
  let io, st = p.p_fsyncs in
  Printf.printf "  fsyncs: %d counted by the I/O wrapper, %d in st_txn_fsyncs\n" io st;
  List.iter (fun c -> List.iter (Printf.printf "  failure: %s\n") (List.rev c.Load.notes)) p.p_clients;
  List.iter (Printf.printf "  missing on reopen: %s\n") (List.filteri (fun i _ -> i < 10) p.p_verify)

(* --- the direct replays of a traced run -------------------------------- *)

type replay = {
  direct : Probe.samples array;  (* direct read seconds by kind *)
  direct_wrong : int;
  text_hit_ratio : float;  (* searches answered from the text index *)
  apply : Probe.samples;  (* in-memory Server.checkin *)
  durable : Probe.samples;  (* durable Server.checkin *)
  flush_cpu : Probe.samples;  (* durable - in-memory - write/fsync *)
}

let names_of v items = List.sort String.compare (List.filter_map (View.full_name v) items)

let direct_read eng = function
  | Gen.Find (name, want) ->
    let v = Server.snapshot eng in
    let got =
      match View.resolve_name v name with
      | Some it -> View.class_path_of v it
      | None -> None
    in
    (K.k_find, Option.to_list got = Option.to_list want)
  | Gen.Select (cls, want) ->
    let v = Server.snapshot eng in
    (K.k_select, names_of v (Query.select v (Query.is_a cls)) = want)
  | Gen.Search (path, needles, want) ->
    let v = Server.snapshot eng in
    (K.k_search, names_of v (Query.select v (Query.matches path needles)) = want)

let replay cfg ~seed ~work (p : phase) =
  let m = Gen.make ~seed ~n_docs:cfg.n_docs in
  let mem = Server.create Gen.schema in
  let mem_db = Server.database mem in
  Gen.populate m mem_db;
  DB.set_text_index_enabled mem_db true;
  Gen.write_tail m mem_db ~flush:(fun () -> Ok ());
  let direct = Array.init (Array.length K.kinds) (fun _ -> Probe.samples ()) in
  let direct_wrong = ref 0 in
  List.iter
    (fun c ->
      List.iter
        (fun r ->
          let t0 = now () in
          let k, right = direct_read mem r in
          Probe.add direct.(k) (now () -. t0);
          (* edit's expectations follow its own reclassifications *)
          if (not right) && cfg.kind <> Load.Edit then incr direct_wrong)
        (List.rev c.Load.reads))
    p.p_clients;
  (* The served path reads frozen snapshots, whose text-index counters
     are private copies that [Database.stats] never sees, so the hit
     ratio is taken here: each distinct recorded search once on the
     working view, weighted by how often it was sent. *)
  let searches = Hashtbl.create 64 in
  List.iter
    (fun c ->
      List.iter
        (function
          | Gen.Search (path, needles, _) ->
            let k = (path, needles) in
            Hashtbl.replace searches k (1 + Option.value ~default:0 (Hashtbl.find_opt searches k))
          | _ -> ())
        c.Load.reads)
    p.p_clients;
  let text_hits = ref 0 and text_tries = ref 0 in
  Hashtbl.iter
    (fun (path, needles) n ->
      let hits () = fst (Seed_core.Db_state.text_counters (DB.raw mem_db)) in
      let before = hits () in
      ignore (Query.select (DB.view mem_db) (Query.matches path needles));
      if hits () > before then text_hits := !text_hits + n;
      text_tries := !text_tries + n)
    searches;
  let io_c = Probe.io_counts ~timed:true in
  let dir = Filename.concat work "replay" in
  let session =
    build_store ~io:(Probe.wrap_io io_c Seed_storage.Io.real) ~index:true m ~dir
  in
  let dur = Server.of_session session in
  let apply = Probe.samples ()
  and durable = Probe.samples ()
  and flush_cpu = Probe.samples () in
  let checkin eng (a : Load.acked) =
    ok (Server.checkout eng ~client:"replay" ~names:a.names);
    let t0 = now () in
    ok (Server.checkin eng ~client:"replay" a.ops);
    now () -. t0
  in
  List.iter
    (fun (a : Load.acked) ->
      let m_i = checkin mem a in
      let s0 = Probe.io_snap io_c in
      let d_i = checkin dur a in
      let s1 = Probe.io_snap io_c in
      let io_i =
        Probe.sum (Probe.since io_c.write_s ~from:s0.s_write_n ~upto:s1.s_write_n)
        +. Probe.sum (Probe.since io_c.fsync_s ~from:s0.s_fsync_n ~upto:s1.s_fsync_n)
      in
      Probe.add apply m_i;
      Probe.add durable d_i;
      Probe.add flush_cpu (d_i -. m_i -. io_i))
    p.p_acked;
  Persist.Session.close session;
  rm_rf dir;
  {
    direct;
    direct_wrong = !direct_wrong;
    text_hit_ratio = ratio (fl !text_hits) (fl !text_tries);
    apply;
    durable;
    flush_cpu;
  }

let per_layer ~(untraced : phase) ~(traced : phase) (r : replay) =
  let p = traced in
  let rep = p.p_report in
  let c0 = rep.c0 and c1 = rep.c1 in
  let checkins = fl (c1.net.sv_checkins - c0.net.sv_checkins) in
  let per_checkin x = ratio x checkins in
  let p50 s = us (Probe.pct s 0.5) in
  let by_kind f = Array.to_list (Array.mapi (fun k name -> f k name) K.kinds) in
  let server_frames k = rep.frame_s.(k) in
  let net =
    by_kind (fun k name -> ("net.server_us." ^ name, "us", p50 (server_frames k)))
    @ by_kind (fun k name ->
          ( "net.wire_us." ^ name, "us",
            if Probe.count (lat p k) = 0 then 0.0
            else p50 (lat p k) -. p50 (server_frames k) ))
    @ by_kind (fun k name ->
          let b = Probe.merge (List.map (fun c -> c.Load.resp_bytes.(k)) p.p_clients) in
          ("net.resp_bytes." ^ name, "bytes", ratio (Probe.sum b) (fl (Probe.count b))))
    @ [
        ( "net.read_queue_us", "us",
          let frames =
            Probe.merge [ server_frames K.k_find; server_frames K.k_search; server_frames K.k_select ]
          in
          let direct =
            Probe.merge [ r.direct.(K.k_find); r.direct.(K.k_search); r.direct.(K.k_select) ]
          in
          if Probe.count frames = 0 then 0.0
          else us (Probe.pct frames 0.99) -. us (Probe.pct direct 0.99) );
        ("net.busy_rejects", "count", fl (c1.net.sv_busy_rejects - c0.net.sv_busy_rejects));
      ]
  in
  let client =
    List.map
      (fun (n, u, v) -> ("client." ^ n, u, Option.value ~default:0.0 v))
      (per_kind untraced)
  in
  let overhead f = 100.0 *. ratio (f traced -. f untraced) (f untraced) in
  net
  @ [
      ("server.checkin_us.p50", "us", p50 r.durable);
      ("server.checkin_us.p99", "us", us (Probe.pct r.durable 0.99));
      ("server.cpu_us_per_op", "us", us (cpu_per_op p));
      ("server.lock_conflicts", "count", fl (sum_clients p (fun c -> c.Load.locked)));
      ("core.apply_us", "us", p50 r.apply);
      ("core.find_us", "us", p50 r.direct.(K.k_find));
      ("core.search_us", "us", p50 r.direct.(K.k_search));
      ("core.select_us", "us", p50 r.direct.(K.k_select));
      ("core.text_hit_ratio", "ratio", r.text_hit_ratio);
      ("core.text_bytes", "bytes", fl c1.db.st_text_bytes);
      ("core.text_postings", "count", fl c1.db.st_text_postings);
      ("core.text_rebuild_s", "s", p.p_rebuild_s);
      ("persist.open_s", "s", rep.open_s);
      ("persist.flush_cpu_us", "us", p50 r.flush_cpu);
      ("persist.records_per_checkin", "count", per_checkin (fl (c1.journal - c0.journal)));
      ( "storage.fsyncs_per_checkin", "ratio",
        per_checkin (fl (c1.db.st_txn_fsyncs - c0.db.st_txn_fsyncs)) );
      ( "storage.txns_per_batch", "ratio",
        ratio
          (fl (c1.db.st_txns_submitted - c0.db.st_txns_submitted))
          (fl (c1.db.st_txn_batches - c0.db.st_txn_batches)) );
      ("storage.max_batch", "count", fl c1.db.st_txn_max_batch);
      ("storage.fsync_us", "us", p50 rep.fsync_s);
      ("storage.write_us", "us", p50 rep.write_s);
      ( "storage.bytes_written_per_checkin", "bytes",
        per_checkin (fl (c1.io.s_write_bytes - c0.io.s_write_bytes)) );
      ("storage.read_bytes_open", "bytes", fl rep.read_bytes_open);
      ( "gc.major_per_kop", "count",
        ratio (fl (c1.gc.major_collections - c0.gc.major_collections)) (served p /. 1000.0) );
      ("server.rss_peak_mib", "MiB", fl rep.hwm_kib /. 1024.0);
      ("gc.top_heap_mib", "MiB", fl (c1.gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
    ]
  @ client
  @ [
      ("host.steal_ratio", "ratio", p.p_steal);
      ("trace.overhead_ops_pct", "%", -.overhead ops_per_s);
      ( "trace.overhead_round_p50_pct", "%",
        overhead (fun p -> Probe.pct (rounds p) 0.5) );
    ]

(* --- output ------------------------------------------------------------ *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " m)

let git_rev () =
  let read f = String.trim (In_channel.with_open_text f In_channel.input_all) in
  try
    let head = read ".git/HEAD" in
    if String.starts_with ~prefix:"ref: " head then
      read (Filename.concat ".git" (String.sub head 5 (String.length head - 5)))
    else head
  with Sys_error _ -> "unknown (not a git checkout)"

(* digest of the library sources, identifying the code measured even
   where there is no git metadata *)
let source_digest () =
  let rec files dir =
    Array.to_list (Sys.readdir dir)
    |> List.sort String.compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" then [ p ]
           else [])
  in
  try Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file (files "lib"))))
  with Sys_error _ -> "unknown"

let print_env cfg ~seed ~seconds ~traced =
  Printf.printf
    "env: workload=%s seed=%d seconds=%g trace=%b git_rev=%s lib_digest=%s \
     nproc=%d ocaml=%s sync=always_fsync docs=%d actions=%d clients=%d\n"
    cfg.name seed seconds traced (git_rev ()) (source_digest ())
    (Domain.recommended_domain_count ()) Sys.ocaml_version cfg.n_docs
    (max 8 (cfg.n_docs / 100)) cfg.clients

(* --- runs -------------------------------------------------------------- *)

let with_work f =
  let work =
    Filename.concat ".perfbench-work" (Printf.sprintf "run-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir ".perfbench-work" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  rm_rf work;
  Unix.mkdir work 0o755;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun h -> try K.quit h with _ -> ()) !live;
      live := [];
      rm_rf work;
      try Unix.rmdir ".perfbench-work" with Unix.Unix_error _ -> ())
    (fun () -> f work)

(* one run as the command line asks; returns whether it was correct *)
let run cfg ~seed ~seconds ~traced ~plant =
  print_env cfg ~seed ~seconds ~traced;
  with_work (fun work ->
      if not traced then begin
        let p =
          run_phase cfg ~seed ~seconds ~traced:false ~setups:cfg.setups ~work ~plant
        in
        print_phase ~label:(cfg.name ^ " untraced") p;
        let correct = correct p in
        result_line ~correct ~attempted:(attempted p) ~failed:(failed p) (end_to_end p);
        correct
      end
      else begin
        (* half the time untraced, half traced: the difference is the
           tracing overhead *)
        let half = seconds /. 2.0 in
        let a = run_phase cfg ~seed ~seconds:half ~traced:false ~setups:1 ~work ~plant in
        print_phase ~label:(cfg.name ^ " untraced") a;
        let b = run_phase cfg ~seed ~seconds:half ~traced:true ~setups:1 ~work ~plant in
        print_phase ~label:(cfg.name ^ " traced") b;
        Printf.printf "== traced minus untraced\n";
        List.iter2
          (fun (n, u, va) (_, _, vb) -> Printf.printf "  %-26s %+14.3f %s\n" n (vb -. va) u)
          (end_to_end a) (end_to_end b);
        let r = replay cfg ~seed ~work b in
        if r.direct_wrong > 0 then
          Printf.printf "  direct reads: %d wrong answers\n" r.direct_wrong;
        let correct = correct a && correct b && r.direct_wrong = 0 in
        result_line ~correct
          ~attempted:(attempted a + attempted b)
          ~failed:(failed a + failed b)
          (per_layer ~untraced:a ~traced:b r);
        correct
      end)

(* Tiny stores, short windows: every workload untraced and traced, then
   a planted wrong answer and a planted missing check-in, both of which
   the oracle must reject. *)
let self_test () =
  let tiny cfg = { cfg with n_docs = 400; warmup_s = 0.2 } in
  let results =
    List.concat_map
      (fun cfg ->
        let cfg = tiny cfg in
        [
          (cfg.name ^ " untraced", run cfg ~seed:1 ~seconds:1.0 ~traced:false ~plant:false);
          (cfg.name ^ " traced", run cfg ~seed:2 ~seconds:1.0 ~traced:true ~plant:false);
        ])
      workloads
  in
  let browse = tiny (List.nth workloads 1) in
  let planted_read = not (run browse ~seed:3 ~seconds:0.5 ~traced:false ~plant:true) in
  let planted_ack =
    let m = Gen.make ~seed:4 ~n_docs:400 in
    let db = DB.create Gen.schema in
    Gen.populate m db;
    Gen.write_tail m db ~flush:(fun () -> Ok ());
    let clean = Gen.verify_db m ~created:[] db = [] in
    m.docs.(0).desc <- "an acknowledged rewrite that never reached the store";
    clean && Gen.verify_db m ~created:[] db <> []
  in
  let checks =
    results
    @ [ ("planted wrong answer rejected", planted_read);
        ("planted missing check-in rejected", planted_ack) ]
  in
  List.iter (fun (n, pass) -> Printf.printf "self-test %-36s %s\n" n (if pass then "ok" else "FAILED")) checks;
  List.for_all snd checks

let usage () =
  prerr_endline
    "usage: perfbench --workload edit|browse|review --seed N --seconds S --trace 0|1\n\
    \       perfbench self-test";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "serve"; dir; traced ] -> K.main ~dir ~traced:(traced = "1")
  | [ _; "self-test" ] -> exit (if self_test () then 0 else 1)
  | _ :: args ->
    let rec parse acc = function
      | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let cfg =
      match List.find_opt (fun c -> c.name = get "workload") workloads with
      | Some c -> c
      | None -> usage ()
    in
    let num f k = match f (get k) with Some v -> v | None -> usage () in
    let seed = num int_of_string_opt "seed" in
    let seconds = num float_of_string_opt "seconds" in
    let traced = num int_of_string_opt "trace" = 1 in
    exit (if run cfg ~seed ~seconds ~traced ~plant:false then 0 else 1)
  | [] -> usage ()
