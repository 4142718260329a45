(* The SEED benchmark harness: one suite per experiment of DESIGN.md §3.

   The paper (ICDE 1986) reports no quantitative tables; its evaluation
   is the qualitative claim that SPADES-on-SEED became "considerably
   slower, but much more flexible". Each suite below regenerates the
   scenario of one figure (or of that claim) and prints timings/sizes so
   the *shape* — who wins, by what factor, where the costs sit — can be
   compared against the paper's narrative. See EXPERIMENTS.md.

   Run all suites:      dune exec bench/main.exe
   Run one suite:       dune exec bench/main.exe -- fig4 spades *)

open Bechamel
open Seed_util
open Seed_schema
module DB = Seed_core.Database
module Rigid = Seed_baseline.Rigid_store
module Raw = Seed_baseline.Raw_store
module Persist = Seed_core.Persist

let ok = Seed_error.ok_exn

let heading id what =
  Fmt.pr "@.==================================================================@.";
  Fmt.pr "Experiment %s - %s@." id what;
  Fmt.pr "==================================================================@."

(* ------------------------------------------------------------------ *)
(* F1/F2: the Fig. 1/2 workload: populate + retrieve-by-name            *)
(* ------------------------------------------------------------------ *)

let fig1_2 () =
  heading "F1/F2" "storing and retrieving the Fig. 1 structure (3 backends)";
  let n = 100 in
  Report.bench ~name:(Printf.sprintf "populate %d clusters" n)
    [
      Test.make ~name:"seed" (Staged.stage (fun () -> ignore (Workloads.seed_populate n)));
      Test.make ~name:"rigid"
        (Staged.stage (fun () -> ignore (Workloads.rigid_populate n)));
      Test.make ~name:"raw" (Staged.stage (fun () -> ignore (Workloads.raw_populate n)));
    ];
  let size = 2000 in
  let seed_db = Workloads.seed_populate size in
  let rigid_db = Workloads.rigid_populate size in
  let raw_db = Workloads.raw_populate size in
  let counter = ref 0 in
  let next () =
    counter := (!counter + 1) mod size;
    Workloads.data_name !counter
  in
  Report.bench ~name:(Printf.sprintf "retrieve by name (db of %d clusters)" size)
    [
      Test.make ~name:"seed" (Staged.stage (fun () -> ignore (DB.find_object seed_db (next ()))));
      Test.make ~name:"rigid" (Staged.stage (fun () -> ignore (Rigid.mem rigid_db (next ()))));
      Test.make ~name:"raw" (Staged.stage (fun () -> ignore (Raw.mem raw_db (next ()))));
    ];
  Report.table ~title:"capability comparison (same workload)"
    ~header:[ "backend"; "objects"; "relationships"; "checks on entry"; "vague data" ]
    [
      [ "seed"; string_of_int (DB.object_count seed_db); "2000"; "consistency only"; "yes" ];
      [ "rigid"; string_of_int (Rigid.object_count rigid_db); "2000"; "consistency + completeness"; "no" ];
      [ "raw"; string_of_int (Raw.object_count raw_db); "2000"; "none"; "untyped" ];
    ]

(* ------------------------------------------------------------------ *)
(* F3: the vague-to-precise lifecycle of Fig. 3                         *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  heading "F3" "vague entry and stepwise refinement (Fig. 3 lifecycle)";
  let seed_db = DB.create Workloads.schema in
  let rigid_db = Rigid.create Workloads.schema in
  let raw_db = Raw.create () in
  let c1 = ref 0 and c2 = ref 0 and c3 = ref 0 in
  Report.bench ~name:"one full lifecycle (enter vague, refine twice)"
    [
      Test.make ~name:"seed (re-classify in place)"
        (Staged.stage (fun () ->
             incr c1;
             ignore (Workloads.seed_vague_lifecycle seed_db !c1)));
      Test.make ~name:"rigid (delete + re-insert)"
        (Staged.stage (fun () ->
             incr c2;
             ignore (Workloads.rigid_vague_lifecycle rigid_db !c2)));
      Test.make ~name:"raw (overwrite, unchecked)"
        (Staged.stage (fun () ->
             incr c3;
             ignore (Workloads.raw_vague_lifecycle raw_db !c3)));
    ];
  Report.table ~title:"expressiveness along the refinement path"
    ~header:
      [ "backend"; "storable stages"; "update ops"; "identity kept"; "checked" ]
    [
      [ "seed"; "3 of 3 (Thing, Data+Access, InputData+Read)"; "7"; "yes"; "yes" ];
      [ "rigid"; "1 of 3 (only the fully precise state)"; "4 + data re-entry"; "no"; "yes" ];
      [ "raw"; "3 of 3"; "7"; "n/a"; "no" ];
    ]

(* ------------------------------------------------------------------ *)
(* F4: versions - delta storage vs full copies (Fig. 4)                 *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  heading "F4" "version storage and views: SEED deltas vs full copies (Fig. 4)";
  let n = 1000 and rounds = 8 in
  let churn = n / 20 in
  (* SEED: delta snapshots *)
  let db, descriptions = Workloads.seed_versioned_db n in
  let _ = ok (DB.create_version db) in
  let base_size = String.length (Persist.encode_db db) in
  let seed_rows = ref [] in
  let prev_size = ref base_size in
  for round = 1 to rounds do
    Workloads.seed_churn db descriptions ~churn ~round;
    let v, t = Report.time_of (fun () -> ok (DB.create_version db)) in
    let size = String.length (Persist.encode_db db) in
    seed_rows :=
      [
        Version_id.to_string v;
        Report.human_bytes (size - !prev_size);
        Report.ms t;
      ]
      :: !seed_rows;
    prev_size := size
  done;
  (* rigid: full copies *)
  let rt = Workloads.rigid_versioned_db n in
  let rigid_rows = ref [] in
  for round = 1 to rounds do
    Workloads.rigid_churn rt n ~churn ~round;
    let snap, t = Report.time_of (fun () -> Rigid.Full_copy.take rt) in
    rigid_rows :=
      [
        Printf.sprintf "copy %d" round;
        Report.human_bytes (Rigid.Full_copy.size_bytes snap);
        Report.ms t;
      ]
      :: !rigid_rows
  done;
  Report.table
    ~title:
      (Printf.sprintf
         "per-version storage cost, %d objects, %d touched per round (SEED \
          deltas)"
         n churn)
    ~header:[ "version"; "added bytes"; "snapshot time" ]
    (List.rev !seed_rows);
  Report.table ~title:"per-version storage cost (full copies, Tichy-style)"
    ~header:[ "version"; "copy bytes"; "copy time" ]
    (List.rev !rigid_rows);
  (* view reconstruction: reading an old version vs the current one *)
  let v1 = Version_id.trunk 1 in
  let counter = ref 0 in
  let next () =
    counter := (!counter + 1) mod n;
    Workloads.data_name !counter
  in
  ok (DB.select_version db None);
  Report.bench ~name:"retrieval: current vs old version view"
    [
      Test.make ~name:"current version"
        (Staged.stage (fun () -> ignore (DB.find_object db (next ()))));
      Test.make ~name:"version 1.0 (view_at, then its extent)"
        (Staged.stage (fun () ->
             let v = ok (DB.view_at db v1) in
             ignore (Seed_core.View.find_object v (next ()))));
    ]

(* ------------------------------------------------------------------ *)
(* F5: patterns - one shared update vs K copies (Fig. 5)                *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  heading "F5" "pattern update propagation vs per-copy updates (Fig. 5)";
  let rows = ref [] in
  List.iter
    (fun k ->
      let db, deadline = Workloads.seed_pattern_family k in
      let flip = ref false in
      let _, seed_t =
        Report.time_of (fun () ->
            for _ = 1 to 100 do
              flip := not !flip;
              let d = if !flip then Value.date 1986 12 31 else Value.date 1986 6 1 in
              ok (DB.set_value db deadline (Some d))
            done)
      in
      let raw = Workloads.raw_copy_family k in
      let _, raw_t =
        Report.time_of (fun () ->
            for _ = 1 to 100 do
              for i = 0 to k - 1 do
                Raw.set_attr raw ~name:(Printf.sprintf "P%04d" i)
                  ~attr:"Deadline" (Value.String "1986-12-31")
              done
            done)
      in
      rows :=
        [
          string_of_int k;
          Report.ms (seed_t /. 100.);
          Report.ms (raw_t /. 100.);
          Printf.sprintf "%.2fx" (raw_t /. seed_t);
        ]
        :: !rows)
    [ 10; 100; 1000 ];
  Report.table
    ~title:
      "updating one shared deadline of K inheritors (100 updates averaged)"
    ~header:[ "K"; "seed pattern (1 update)"; "raw copies (K updates)"; "copies/pattern" ]
    (List.rev !rows);
  (* the retrieval side of the trade: reading through the expansion *)
  let db, _ = Workloads.seed_pattern_family 100 in
  let raw = Workloads.raw_copy_family 100 in
  let member = Option.get (DB.find_object db "P0050") in
  let item = Option.get (Seed_core.Db_state.find_item (DB.raw db) member) in
  Report.bench ~name:"reading one member's deadline (family of 100)"
    [
      Test.make ~name:"seed (query-time expansion)"
        (Staged.stage (fun () ->
             let v = DB.view db in
             ignore
               (Seed_core.View.child_v v (Seed_core.View.vitem_real item)
                  ~role:"Deadline" ())));
      Test.make ~name:"raw (direct field)"
        (Staged.stage (fun () ->
             ignore (Raw.get_attr raw ~name:"P0050" ~attr:"Deadline")));
    ]

(* ------------------------------------------------------------------ *)
(* S1: the SPADES claim - "considerably slower, but much more flexible" *)
(* ------------------------------------------------------------------ *)

let spades () =
  heading "S1" "SPADES-on-SEED vs SPADES-on-raw-structures";
  let n = 200 in
  let (_ : Spades_tool.Spades.t), seed_t =
    Report.time_of (fun () -> Workloads.spades_session_on_seed n)
  in
  let (_ : Spades_tool.Spades_raw.t), raw_t =
    Report.time_of (fun () -> Workloads.spades_session_on_raw n)
  in
  Report.table
    ~title:
      (Printf.sprintf
         "identical specification session (%d things, flows, refinements)" n)
    ~header:[ "configuration"; "session time"; "slowdown"; "gains" ]
    [
      [ "SPADES on raw structures"; Report.ms raw_t; "1.0x"; "-" ];
      [
        "SPADES on SEED";
        Report.ms seed_t;
        Printf.sprintf "%.1fx" (seed_t /. raw_t);
        "consistency, versions, completeness, queries";
      ];
    ];
  Fmt.pr
    "@.paper: \"SPADES has become considerably slower, but much more \
     flexible\" - the factor above is this build's 'considerably'.@."

(* ------------------------------------------------------------------ *)
(* C1: ablation - what the permanent consistency checking costs         *)
(* ------------------------------------------------------------------ *)

let ablation () =
  heading "C1" "cost of the permanent consistency checks";
  (* acyclicity: the DFS grows with the containment chain depth *)
  let chain_db depth =
    let db = DB.create Workloads.schema in
    let prev = ref None in
    let last = ref None in
    for i = 0 to depth - 1 do
      let a = ok (DB.create_object db ~cls:"Action" ~name:(Workloads.action_name i) ()) in
      (match !prev with
      | Some p ->
        ignore (ok (DB.create_relationship db ~assoc:"Contained" ~endpoints:[ a; p ] ()))
      | None -> ());
      prev := Some a;
      last := Some a
    done;
    (db, Option.get !last)
  in
  let mk_test depth =
    let db, deepest = chain_db depth in
    let leaf = ok (DB.create_object db ~cls:"Action" ~name:"Leaf" ()) in
    Test.make ~name:(Printf.sprintf "chain depth %d" depth)
      (Staged.stage (fun () ->
           let r =
             ok
               (DB.create_relationship db ~assoc:"Contained"
                  ~endpoints:[ leaf; deepest ] ())
           in
           ok (DB.delete db r)))
  in
  Report.bench ~name:"ACYCLIC check: add+remove an edge below a chain"
    [ mk_test 10; mk_test 100; mk_test 500 ];
  (* completeness: on-demand, full sweep *)
  let rows =
    List.map
      (fun n ->
        let db = Workloads.seed_populate n in
        let report, t = Report.time_of (fun () -> DB.completeness_report db) in
        [ string_of_int (2 * n); Report.ms t; string_of_int (List.length report) ])
      [ 100; 500; 2000 ]
  in
  Report.table ~title:"completeness sweep (on demand, whole database)"
    ~header:[ "objects"; "sweep time"; "diagnostics" ]
    rows;
  (* persistence: encode/decode scale *)
  let rows =
    List.map
      (fun n ->
        let db = Workloads.seed_populate n in
        let payload, enc_t = Report.time_of (fun () -> Persist.encode_db db) in
        let _, dec_t =
          Report.time_of (fun () -> ok (Persist.decode_db payload))
        in
        [
          string_of_int (2 * n);
          Report.human_bytes (String.length payload);
          Report.ms enc_t;
          Report.ms dec_t;
        ])
      [ 100; 500; 2000 ]
  in
  Report.table ~title:"snapshot encode/decode (decode includes verification)"
    ~header:[ "objects"; "bytes"; "encode"; "decode" ]
    rows;
  (* structural pattern updates re-validate every inheritor context —
     the correctness price that value updates avoid *)
  let rows =
    List.map
      (fun k ->
        let db, _ = Workloads.seed_pattern_family k in
        let p = Option.get (DB.find_pattern db "Std") in
        let _, structural_t =
          Report.time_of (fun () ->
              for _ = 1 to 20 do
                (* add and remove a pattern sub-object: each step
                   re-checks all K contexts *)
                match
                  DB.create_sub_object db ~parent:p ~role:"Note"
                    ~value:(Value.String "structural") ()
                with
                | Ok id -> ok (DB.delete db id)
                | Error _ -> ()
              done)
        in
        [ string_of_int k; Report.ms (structural_t /. 40.) ])
      [ 10; 100; 1000 ]
  in
  Report.table
    ~title:
      "structural pattern update (re-validates all K inheritor contexts)"
    ~header:[ "K inheritors"; "per update" ]
    rows

(* ------------------------------------------------------------------ *)
(* P1: storage substrate micro-benchmarks                               *)
(* ------------------------------------------------------------------ *)

let storage () =
  heading "P1" "storage substrate micro-benchmarks";
  let payload = String.make 4096 'x' in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "seed_bench_journal" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let jpath = Filename.concat dir "bench.log" in
  (try Sys.remove jpath with Sys_error _ -> ());
  let journal = ok (Seed_storage.Journal.open_ jpath) in
  Report.bench ~name:"primitives"
    [
      Test.make ~name:"crc32 of 4 KiB"
        (Staged.stage (fun () -> ignore (Seed_storage.Crc32.digest payload)));
      Test.make ~name:"journal append 4 KiB"
        (Staged.stage (fun () ->
             ok (Seed_storage.Journal.append journal [ [ payload ] ])));
    ];
  Seed_storage.Journal.close journal

(* ------------------------------------------------------------------ *)
(* P2: crash recovery - journal replay vs compacted open,               *)
(*     and the price of each durability policy                          *)
(* ------------------------------------------------------------------ *)

(* One measured [Persist.Session.open_] (verify on) of the store in
   [dir], run in a fresh process so its allocation and heap high-water
   are the open's own: prints wall ms, allocated MiB, top heap MiB. *)
let measure_open dir =
  let a0 = Gc.allocated_bytes () in
  let s, t = Report.time_of (fun () -> ok (Persist.Session.open_ ~dir ())) in
  let alloc = Gc.allocated_bytes () -. a0 in
  let top = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  Persist.Session.close s;
  Printf.printf "%.3f %.1f %.1f\n" (t *. 1000.) (alloc /. 1048576.)
    (float_of_int top /. 1048576.)

let open_in_child dir =
  let out, w = Unix.pipe () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--measure-open"; dir |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr out in
  let line = In_channel.input_all ic in
  In_channel.close ic;
  ignore (Unix.waitpid [] pid);
  Scanf.sscanf line " %f %f %f" (fun ms alloc top -> (ms, alloc, top))

let median xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  a.(Array.length a / 2)

(* The open's verify sweep alone, over the store in [dir] loaded
   unverified: the minor words of one sweep (deterministic, what an open
   pays) and the minimum wall ms of 7 more. *)
let measure_verify dir =
  let db = ok (Persist.load ~verify:false ~dir ()) in
  let v = Seed_core.View.current (DB.raw db) in
  let sweep () = ok (Seed_core.Consistency.check_database v) in
  let w0 = Gc.minor_words () in
  sweep ();
  let words = Gc.minor_words () -. w0 in
  let ms = List.init 7 (fun _ -> 1000. *. snd (Report.time_of sweep)) in
  (List.fold_left Float.min infinity ms, words)

let recovery () =
  heading "P2" "recovery time and durability policy cost";
  let module Store = Seed_storage.Store in
  let fresh_dir =
    let c = ref 0 in
    fun () ->
      incr c;
      let d =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "seed_bench_rec_%d_%d" (Unix.getpid ()) !c)
      in
      if Sys.file_exists d then
        Array.iter
          (fun f -> Sys.remove (Filename.concat d f))
          (Sys.readdir d);
      d
  in
  let payload = String.make 512 'r' in
  (* open time as a function of journal length, against the same data
     folded into a snapshot by compaction *)
  let rows =
    List.map
      (fun n ->
        let dir = fresh_dir () in
        let store, _, _, _ = ok (Store.open_dir dir) in
        for _ = 1 to n do
          ok (Store.append store [ payload ])
        done;
        Store.close store;
        let (s1, _, replayed, _), replay_t =
          Report.time_of (fun () -> ok (Store.open_dir dir))
        in
        Store.close s1;
        (* now compact and measure the post-compaction open *)
        let store, _, _, _ = ok (Store.open_dir dir) in
        ok (Store.compact store ~snapshot:(String.concat "" [ payload ]));
        Store.close store;
        let (s2, _, _, _), snap_t =
          Report.time_of (fun () -> ok (Store.open_dir dir))
        in
        Store.close s2;
        [
          string_of_int n;
          string_of_int (List.length replayed);
          Report.ms replay_t;
          Report.ms snap_t;
          Printf.sprintf "%.1fx" (replay_t /. snap_t);
        ])
      [ 100; 1_000; 10_000 ]
  in
  Report.table
    ~title:"Store.open_dir: replaying an uncompacted journal vs a snapshot"
    ~header:
      [ "journal records"; "replayed"; "replay open"; "compacted open"; "ratio" ]
    rows;
  (* the whole open of a SPADES document store: snapshot decoded into
     the root, indexes, verify *)
  let json = ref [] in
  let rows =
    List.map
      (fun (n, repeats) ->
        let dir = fresh_dir () in
        let snapshot_bytes =
          let db, _ = Workloads.text_populate n in
          ok (Persist.save db ~dir);
          (Unix.stat (Filename.concat dir "snapshot.bin")).Unix.st_size
        in
        Gc.compact ();
        let runs = List.init repeats (fun _ -> open_in_child dir) in
        let ms = List.map (fun (ms, _, _) -> ms) runs in
        let verify_ms, verify_words = measure_verify dir in
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Unix.rmdir dir;
        let _, alloc, top = List.hd runs in
        let lo = List.fold_left Float.min infinity ms in
        let hi = List.fold_left Float.max neg_infinity ms in
        json :=
          Printf.sprintf
            "    {\"case\": \"verify\", \"docs\": %d, \"repeats\": 7, \
             \"verify_ms_min\": %.1f, \"minor_words\": %.0f}"
            n verify_ms verify_words
          :: Printf.sprintf
               "    {\"case\": \"session_open\", \"docs\": %d, \"snapshot_bytes\": %d, \
                \"repeats\": %d, \"open_ms\": %.1f, \"open_ms_min\": %.1f, \
                \"open_ms_max\": %.1f, \"alloc_mib\": %.1f, \"top_heap_mib\": %.1f}"
               n snapshot_bytes repeats (median ms) lo hi alloc top
          :: !json;
        [
          string_of_int n;
          Report.human_bytes snapshot_bytes;
          Printf.sprintf "%.1f ms (%.1f-%.1f)" (median ms) lo hi;
          Printf.sprintf "%.1f MiB" alloc;
          Printf.sprintf "%.1f MiB" top;
          Printf.sprintf "%.1f ms" verify_ms;
          Printf.sprintf "%.0f" verify_words;
        ])
      [ (10_000, 5); (100_000, 3) ]
  in
  Report.table
    ~title:
      "Persist.Session.open_ of a SPADES document store (verify on, fresh process), \
       and its verify sweep alone (in process)"
    ~header:
      [
        "docs"; "snapshot"; "open (median, min-max)"; "allocated"; "top heap";
        "verify (min of 7)"; "verify words";
      ]
    rows;
  Report.write_json "recovery"
    ~extra:[ ("host_cores", string_of_int (Domain.recommended_domain_count ())) ]
    (List.rev !json);
  (* append cost per durability policy *)
  let mk_store sync =
    let dir = fresh_dir () in
    let store, _, _, _ = ok (Store.open_dir ~sync dir) in
    store
  in
  let s_fsync = mk_store `Always_fsync in
  let s_flush = mk_store `Flush_only in
  Report.bench ~name:"append 512 B under each sync policy"
    [
      Test.make ~name:"`Always_fsync"
        (Staged.stage (fun () -> ok (Store.append s_fsync [ payload ])));
      Test.make ~name:"`Flush_only"
        (Staged.stage (fun () -> ok (Store.append s_flush [ payload ])));
    ];
  Store.close s_fsync;
  Store.close s_flush

(* ------------------------------------------------------------------ *)
(* Q1: the query planner - extent/index-backed select vs a full scan    *)
(* ------------------------------------------------------------------ *)

(* Seconds and minor words per call of [f], over the calls [f 1] to
   [f iters] after the warm-up call [f 0]. *)
let bench_op ~iters f =
  ignore (f 0);
  let w0 = Gc.minor_words () in
  let _, t =
    Report.time_of (fun () ->
        for i = 1 to iters do
          ignore (f i)
        done)
  in
  let per x = x /. float_of_int iters in
  (per t, per (Gc.minor_words () -. w0))

let query () =
  heading "Q1" "query planner: extent/index-backed select vs full scan";
  let module Q = Seed_core.Query in
  let module View = Seed_core.View in
  let module Db_state = Seed_core.Db_state in
  let module Item = Seed_core.Item in
  (* the pre-planner select: walk the whole item table, test every live
     normal independent, sort by name — what [Q.select] compiles to when
     a predicate is opaque *)
  let naive_select v p =
    Db_state.fold_items (View.db v) ~init:[] ~f:(fun acc it ->
        if
          it.Item.body = Item.Independent
          && View.live_normal v it
          && Q.test p v it
        then it :: acc
        else acc)
    |> List.sort (fun (a : Item.t) b -> Ident.compare a.Item.id b.Item.id)
  in
  let rows = ref [] in
  let json = ref [] in
  List.iter
    (fun n ->
      let db = Workloads.query_populate n in
      let v = DB.view db in
      let iters = if n >= 100_000 then 10 else if n >= 10_000 then 50 else 200 in
      let ops =
        [
          ("select_by_class", Q.in_class "C4");
          ("is_a_deep", Q.is_a "C6");
          ("name_lookup", Q.name_is (Workloads.query_name (n / 2)));
        ]
      in
      List.iter
        (fun (key, p) ->
          let indexed, words = bench_op ~iters (fun _ -> Q.select v p) in
          let scan, _ = bench_op ~iters (fun _ -> naive_select v p) in
          let hits = List.length (Q.select v p) in
          rows :=
            [
              string_of_int n;
              key;
              string_of_int hits;
              Report.ms indexed;
              Printf.sprintf "%.0f" words;
              Report.ms scan;
              Printf.sprintf "%.1fx" (scan /. indexed);
            ]
            :: !rows;
          json :=
            Printf.sprintf
              "    {\"items\": %d, \"query\": %S, \"hits\": %d, \
               \"indexed_us\": %.2f, \"select_words\": %.0f, \"scan_us\": \
               %.2f, \"speedup\": %.1f}"
              n key hits (indexed *. 1e6) words (scan *. 1e6) (scan /. indexed)
            :: !json)
        ops)
    [ 1_000; 10_000; 100_000 ];
  Report.table
    ~title:"planner-backed select vs naive item-table scan (per query)"
    ~header:[ "items"; "query"; "hits"; "indexed"; "minor words"; "scan"; "speedup" ]
    (List.rev !rows);
  Report.write_json "query" (List.rev !json)

(* ------------------------------------------------------------------ *)
(* X1: content search - trigram index vs full scan                      *)

let text () =
  heading "X1" "content search: trigram index vs full scan";
  let module Q = Seed_core.Query in
  let module View = Seed_core.View in
  let module Db_state = Seed_core.Db_state in
  let module Item = Seed_core.Item in
  (* the pre-index containment select: walk the whole item table,
     re-test every live independent (for Contains that fetches and
     substring-scans its string carriers) and sort by name exactly as
     [Q.select] does, so the two arms differ only in the access path *)
  let by_name v (a : Item.t) (b : Item.t) =
    match (View.full_name v a, View.full_name v b) with
    | Some x, Some y -> String.compare x y
    | Some _, None -> -1
    | None, Some _ -> 1
    | None, None -> Ident.compare a.Item.id b.Item.id
  in
  let naive_select v p =
    Db_state.fold_items (View.db v) ~init:[] ~f:(fun acc it ->
        if
          it.Item.body = Item.Independent
          && View.live_normal v it
          && Q.test p v it
        then it :: acc
        else acc)
    |> List.sort (by_name v)
  in
  let rows = ref [] in
  let json = ref [] in
  List.iter
    (fun n ->
      let db, carriers = Workloads.text_populate n in
      let v = DB.view db in
      let scan_iters = if n >= 100_000 then 3 else 20 in
      let ops =
        [
          ("selective", Q.contains "" "fault quarantine beacon");
          ("common", Q.contains "" "recovery");
          ("negative", Q.contains "" "holographic xylophone");
          ("conjunction", Q.matches "" [ "fault quarantine"; "beacon" ]);
          ("path_scoped", Q.contains "Thing.Description" "quarantine");
        ]
      in
      List.iter
        (fun (key, p) ->
          let plan =
            match Q.explain v p with
            | Q.Indexed { texts = _ :: _; _ } -> "index"
            | Q.Indexed _ -> "index(other)"
            | Q.Scan _ -> "scan"
          in
          let select_iters = if plan = "scan" then scan_iters else 200 in
          let indexed, words = bench_op ~iters:select_iters (fun _ -> Q.select v p) in
          let scan, _ = bench_op ~iters:scan_iters (fun _ -> naive_select v p) in
          let hits = List.length (Q.select v p) in
          rows :=
            [
              string_of_int n;
              key;
              plan;
              string_of_int hits;
              Report.ms indexed;
              Printf.sprintf "%.0f" words;
              Report.ms scan;
              Printf.sprintf "%.1fx" (scan /. indexed);
            ]
            :: !rows;
          json :=
            Printf.sprintf
              "    {\"case\": \"search\", \"docs\": %d, \"query\": %S, \
               \"plan\": %S, \"hits\": %d, \"select_us\": %.2f, \
               \"select_words\": %.0f, \"scan_us\": %.2f, \"speedup\": %.1f}"
              n key plan hits (indexed *. 1e6) words (scan *. 1e6) (scan /. indexed)
            :: !json)
        ops;
      (* wholesale build: what a branch switch or reopen pays *)
      let _, rebuild_t =
        Report.time_of (fun () ->
            DB.set_text_index_enabled db false;
            DB.set_text_index_enabled db true)
      in
      let st = DB.stats db in
      rows :=
        [
          string_of_int n;
          "(rebuild)";
          "-";
          string_of_int st.DB.st_text_docs;
          Report.ms rebuild_t;
          "-";
          "-";
          Printf.sprintf "%d KiB" (st.DB.st_text_bytes / 1024);
        ]
        :: !rows;
      json :=
        Printf.sprintf
          "    {\"case\": \"build\", \"docs\": %d, \"rebuild_us\": %.2f, \
           \"trigrams\": %d, \"postings\": %d, \"bytes\": %d}"
          n (rebuild_t *. 1e6) st.DB.st_text_trigrams st.DB.st_text_postings
          st.DB.st_text_bytes
        :: !json;
      (* incremental maintenance: set_value with the index on vs off.
         The index folds its overlay once it passes 1/16 of the
         documents (at least 256): distinct touches enough for five
         overlays put at least four folds in the average. *)
      let touches = 5 * max 257 ((n / 16) + 1) in
      let touch i =
        let c = carriers.(i * 7919 mod n) in
        ok (DB.set_value db c (Some (Value.String (Workloads.text_body ~n i))))
      in
      (* seconds and minor words per touch *)
      let time_touches () =
        let w0 = Gc.minor_words () in
        let _, t =
          Report.time_of (fun () ->
              for i = 1 to touches do
                touch i
              done)
        in
        let per x = x /. float_of_int touches in
        (per t, per (Gc.minor_words () -. w0))
      in
      let on_us, on_words = time_touches () in
      DB.set_text_index_enabled db false;
      let off_us, off_words = time_touches () in
      DB.set_text_index_enabled db true;
      rows :=
        [
          string_of_int n;
          "(update)";
          "-";
          string_of_int touches;
          Report.ms on_us;
          Printf.sprintf "%.0f/%.0f" on_words off_words;
          Report.ms off_us;
          Printf.sprintf "%.2fx" (on_us /. off_us);
        ]
        :: !rows;
      json :=
        Printf.sprintf
          "    {\"case\": \"update\", \"docs\": %d, \"touches\": %d, \
           \"indexed_us\": %.2f, \"plain_us\": %.2f, \"overhead\": %.2f, \
           \"indexed_words\": %.0f, \"plain_words\": %.0f}"
          n touches (on_us *. 1e6) (off_us *. 1e6) (on_us /. off_us) on_words off_words
        :: !json)
    [ 10_000; 100_000 ];
  Report.table
    ~title:
      "containment select: trigram index vs naive scan (plus build/update \
       cost)"
    ~header:
      [ "docs"; "query"; "plan"; "hits"; "select"; "minor words"; "scan"; "speedup" ]
    (List.rev !rows);
  Report.write_json "text" (List.rev !json)

(* ------------------------------------------------------------------ *)
(* V1: materialized version views - cached reads vs resolution scans    *)
(* ------------------------------------------------------------------ *)

let version () =
  heading "V1"
    "version reads: materialized extents (cold/warm) vs the current view";
  let module Q = Seed_core.Query in
  let module View = Seed_core.View in
  (* mean time per call over at least 50 ms of calls *)
  let bench_op f =
    f ();
    let rec go n =
      let _, t =
        Report.time_of (fun () ->
            for _ = 1 to n do
              f ()
            done)
      in
      if t >= 0.05 then t /. float_of_int n else go (n * 4)
    in
    go 16
  in
  let median l =
    let a = Array.of_list l in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let rows = ref [] in
  let json = ref [] in
  List.iter
    (fun (items, versions) ->
      let db, vids = Workloads.versioned_query_db ~items ~versions in
      (* the newest version: items untouched since round 1 resolve
         through the whole ancestor chain — the worst case for the
         extent build *)
      let vid = List.nth vids (List.length vids - 1) in
      let v = View.at (DB.raw db) vid in
      let ops =
        [
          ("select_by_class", fun v -> ignore (Q.select v (Q.in_class "C4")));
          ("is_a_deep", fun v -> ignore (Q.select v (Q.is_a "C6")));
          ( "name_lookup",
            fun v ->
              ignore (Q.select v (Q.name_is (Workloads.query_name (items / 2))))
          );
          ( "find_object",
            fun v ->
              ignore (View.find_object v (Workloads.query_name (items / 2))) );
        ]
      in
      List.iter
        (fun (key, f) ->
          (* current: the same read on the current state's extents *)
          let current = bench_op (fun () -> f (View.current (DB.raw db))) in
          (* cold: a fresh frozen handle has an empty version cache, so
             its first view pays the reconstruction sweep; median of 21 *)
          let cold =
            median
              (List.init 21 (fun _ ->
                   let fresh = Seed_core.Db_state.freeze (DB.raw db) in
                   snd (Report.time_of (fun () -> f (View.at fresh vid)))))
          in
          (* warm: every later read of the view is a lookup in its extent *)
          let warm = bench_op (fun () -> f v) in
          rows :=
            [
              string_of_int items;
              string_of_int versions;
              key;
              Printf.sprintf "%.3f ms" (current *. 1000.);
              Report.ms cold;
              Printf.sprintf "%.3f ms" (warm *. 1000.);
              Printf.sprintf "%.2fx" (warm /. current);
            ]
            :: !rows;
          json :=
            Printf.sprintf
              "    {\"items\": %d, \"versions\": %d, \"query\": %S, \
               \"current_us\": %.2f, \"cold_us\": %.2f, \"warm_us\": %.2f}"
              items versions key (current *. 1e6) (cold *. 1e6) (warm *. 1e6)
            :: !json)
        ops)
    [ (2_000, 8); (10_000, 16); (10_000, 64) ];
  Report.table
    ~title:"reads at the deepest version vs the same read on the current view"
    ~header:
      [ "items"; "versions"; "query"; "current"; "cold (build)"; "warm"; "warm/current" ]
    (List.rev !rows);
  Report.write_json "version" (List.rev !json)

(* ------------------------------------------------------------------ *)
(* T1: transaction frames - one-frame commit, root-swap rollback,       *)
(*     and recovery past a torn transaction                             *)
(* ------------------------------------------------------------------ *)

let txn () =
  heading "T1"
    "transaction frames: one-frame commit, root-swap rollback, torn-txn \
     recovery";
  let module Store = Seed_storage.Store in
  let fresh_dir =
    let c = ref 0 in
    fun () ->
      incr c;
      let d =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "seed_bench_txn_%d_%d" (Unix.getpid ()) !c)
      in
      if Sys.file_exists d then
        Array.iter
          (fun f -> Sys.remove (Filename.concat d f))
          (Sys.readdir d);
      d
  in
  let payload = String.make 512 't' in
  let json = ref [] in
  (* K records as K one-record transactions (K frames, K fsyncs) vs one
     K-record transaction (one frame, one fsync) under `Always_fsync`.
     Each arm gets its own fresh store and the arms are interleaved
     iteration by iteration: fsync timing drifts with file growth and
     with unrelated host activity, so timing one arm's whole loop after
     the other's bills the drift to whichever ran second (at K=1, where
     both arms write identical bytes, that skew used to be the whole
     reported difference). *)
  let rows =
    List.map
      (fun k ->
        let batch = List.init k (fun _ -> payload) in
        let iters = if k >= 64 then 10 else 100 in
        let k_store, _, _, _ =
          ok (Store.open_dir ~sync:`Always_fsync (fresh_dir ()))
        in
        let store, _, _, _ =
          ok (Store.open_dir ~sync:`Always_fsync (fresh_dir ()))
        in
        let k_txns_t = ref 0. and one_txn_t = ref 0. in
        for _ = 1 to iters do
          let t0 = Unix.gettimeofday () in
          List.iter (fun p -> ok (Store.append k_store [ p ])) batch;
          let t1 = Unix.gettimeofday () in
          ok (Store.append store batch);
          let t2 = Unix.gettimeofday () in
          k_txns_t := !k_txns_t +. (t1 -. t0);
          one_txn_t := !one_txn_t +. (t2 -. t1)
        done;
        Store.close k_store;
        Store.close store;
        let k_txns = !k_txns_t /. float_of_int iters in
        let one_txn = !one_txn_t /. float_of_int iters in
        json :=
          Printf.sprintf
            "    {\"case\": \"one_frame_commit\", \"records\": %d, \
             \"k_txns_us\": %.2f, \"one_txn_us\": %.2f, \"speedup\": %.1f}"
            k (k_txns *. 1e6) (one_txn *. 1e6) (k_txns /. one_txn)
          :: !json;
        [
          string_of_int k;
          Report.ms k_txns;
          Report.ms one_txn;
          Printf.sprintf "%.1fx" (k_txns /. one_txn);
        ])
      [ 1; 8; 64 ]
  in
  Report.table
    ~title:
      "committing K records under `Always_fsync: K one-record transactions \
       vs one K-record transaction"
    ~header:[ "K records"; "K transactions"; "one transaction"; "speedup" ]
    rows;
  (* rollback: a failed transaction of B ops dropped by swapping back
     to the savepoint root (O(1)) vs the pre-transaction alternative —
     restoring the database from a serialized snapshot (O(db), what
     Server.checkin used to do); the JSON field keeps its historical
     name [undo_us] so runs stay comparable across revisions *)
  let rollback_ops = 20 in
  let rows =
    List.map
      (fun n ->
        let db = Workloads.seed_populate n in
        let tag = ref 0 in
        let run_txn () =
          incr tag;
          match
            DB.with_transaction db (fun () ->
                for i = 0 to rollback_ops - 1 do
                  ignore
                    (ok
                       (DB.create_object db ~cls:"Action"
                          ~name:(Printf.sprintf "Roll%d_%d" !tag i) ()))
                done;
                Seed_error.fail (Seed_error.Invalid_operation "bench rollback"))
          with
          | Error _ -> ()
          | Ok () -> assert false
        in
        run_txn ();
        let iters = if n >= 2000 then 50 else 200 in
        let _, undo_t =
          Report.time_of (fun () ->
              for _ = 1 to iters do
                run_txn ()
              done)
        in
        let undo = undo_t /. float_of_int iters in
        let _, restore =
          Report.time_of (fun () ->
              let p = Persist.encode_db db in
              ignore (ok (Persist.decode_db p)))
        in
        json :=
          Printf.sprintf
            "    {\"case\": \"rollback\", \"objects\": %d, \"txn_ops\": %d, \
             \"undo_us\": %.2f, \"snapshot_restore_us\": %.2f, \"speedup\": \
             %.1f}"
            (2 * n) rollback_ops (undo *. 1e6) (restore *. 1e6) (restore /. undo)
          :: !json;
        [
          string_of_int (2 * n);
          string_of_int rollback_ops;
          Report.ms undo;
          Report.ms restore;
          Printf.sprintf "%.1fx" (restore /. undo);
        ])
      [ 100; 1_000; 5_000 ]
  in
  Report.table
    ~title:
      (Printf.sprintf
         "rolling back a failed %d-op transaction: root swap vs snapshot \
          restore"
         rollback_ops)
    ~header:
      [ "db objects"; "txn ops"; "root-swap rollback"; "snapshot restore"; "ratio" ]
    rows;
  (* recovery past a torn transaction: a crash mid-flush leaves the last
     transaction's frame cut short at the journal's tail; open must drop
     it whole and cut it off *)
  let rows =
    List.map
      (fun n ->
        let dir = fresh_dir () in
        let jpath = Filename.concat dir "journal.log" in
        let store, _, _, _ = ok (Store.open_dir dir) in
        for _ = 1 to n do
          ok (Store.append store [ payload ])
        done;
        let before = (Unix.stat jpath).Unix.st_size in
        ok (Store.append store (List.init 16 (fun _ -> payload)));
        let after = (Unix.stat jpath).Unix.st_size in
        Store.close store;
        (* cut the 16-record frame mid-payload, as a crash mid-write would *)
        Unix.truncate jpath (before + ((after - before) / 2));
        let (s, _, replayed, rc), t =
          Report.time_of (fun () -> ok (Store.open_dir dir))
        in
        Store.close s;
        json :=
          Printf.sprintf
            "    {\"case\": \"torn_txn_recovery\", \"committed\": %d, \
             \"replayed\": %d, \"bytes_dropped\": %d, \"open_us\": %.2f}"
            n (List.length replayed) rc.Store.bytes_dropped (t *. 1e6)
          :: !json;
        [
          string_of_int n;
          string_of_int (List.length replayed);
          string_of_int rc.Store.bytes_dropped;
          Report.ms t;
        ])
      [ 100; 1_000; 10_000 ]
  in
  Report.table
    ~title:"open with a 16-record transaction torn at the journal tail"
    ~header:[ "committed records"; "replayed"; "bytes dropped"; "open time" ]
    rows;
  Report.write_json "txn" (List.rev !json)

(* ------------------------------------------------------------------ *)
(* T2: group-commit coalescing - writer threads over one journal        *)
(* ------------------------------------------------------------------ *)

let commit () =
  heading "T2"
    "group commit: committed txns/s and fsyncs/txn under `Always_fsync \
     vs writer threads";
  let module Store = Seed_storage.Store in
  let module CD = Seed_storage.Commit_daemon in
  let fresh_dir =
    let c = ref 0 in
    fun () ->
      incr c;
      let d =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "seed_bench_commit_%d_%d" (Unix.getpid ()) !c)
      in
      if Sys.file_exists d then
        Array.iter
          (fun f -> Sys.remove (Filename.concat d f))
          (Sys.readdir d);
      d
  in
  let payload = String.make 512 'c' in
  (* Writers are sys-threads, not domains: on few cores the blocking
     fsync releases the runtime lock, which is exactly the window where
     the other writers enqueue, and thread wake-up is cheaper than
     cross-domain wake-up. *)
  let json = ref [] in
  let baseline = ref 0. in
  let run writers =
    let dir = fresh_dir () in
    let store, _, _, _ = ok (Store.open_dir ~sync:`Always_fsync dir) in
    let stop = Atomic.make false in
    let ready = Atomic.make 0 in
    let counts = Array.make writers 0 in
    let worker w =
      Thread.create
        (fun () ->
          Atomic.incr ready;
          while Atomic.get ready <= writers do
            Thread.yield ()
          done;
          let n = ref 0 in
          while not (Atomic.get stop) do
            ok (Store.append store [ payload; payload ]);
            incr n
          done;
          counts.(w) <- !n)
        ()
    in
    let threads = List.init writers worker in
    (* release the workers only when all are spinning, so spawn-up cost
       stays off the clock *)
    while Atomic.get ready < writers do
      Thread.yield ()
    done;
    let t0 = Unix.gettimeofday () in
    Atomic.incr ready;
    Unix.sleepf 0.5;
    Atomic.set stop true;
    List.iter Thread.join threads;
    let txns = Array.fold_left ( + ) 0 counts in
    let elapsed = Unix.gettimeofday () -. t0 in
    let s = Store.write_stats store in
    Store.close store;
    let txns_s = float_of_int txns /. elapsed in
    let fsyncs_txn = float_of_int s.CD.fsyncs /. float_of_int (max 1 txns) in
    if writers = 1 then baseline := txns_s;
    let speedup = if !baseline > 0. then txns_s /. !baseline else 1. in
    json :=
      Printf.sprintf
        "    {\"case\": \"group_commit_scaling\", \"writers\": %d, \
         \"txns_per_sec\": %.0f, \"speedup_vs_1_writer\": %.2f, \
         \"fsyncs_per_txn\": %.3f, \"max_batch\": %d, \"queue_hwm\": %d}"
        writers txns_s speedup fsyncs_txn s.CD.max_batch s.CD.queue_hwm
      :: !json;
    [
      string_of_int writers;
      Printf.sprintf "%.0f" txns_s;
      Printf.sprintf "%.2fx" speedup;
      Printf.sprintf "%.2f" fsyncs_txn;
      string_of_int s.CD.max_batch;
      string_of_int s.CD.queue_hwm;
    ]
  in
  let rows = List.map run [ 1; 2; 4; 8; 16; 32 ] in
  Report.table
    ~title:
      (Printf.sprintf
         "2-record transactions under `Always_fsync (%d cores): \
          coalesced commits over one journal"
         (Domain.recommended_domain_count ()))
    ~header:
      [ "writers"; "txns/s"; "vs 1 wr"; "fsyncs/txn"; "max batch"; "q hwm" ]
    rows;
  Report.write_json "commit"
    ~extra:
      [
        ("host_cores", string_of_int (Domain.recommended_domain_count ()));
        ( "environment_note",
          "\"each row is one 0.5 s run; writer wake-up and the \
           commit-window quantum (the OS sleep floor, tens of microseconds) \
           sit between fsyncs, so txns/s ramps with the writer count and \
           varies from run to run, while the fsyncs/txn and max_batch \
           columns are the hardware-independent measure of coalescing\"" );
      ]
    (List.rev !json)

(* ------------------------------------------------------------------ *)
(* R1: chaos - recovery under injected corruption and read faults       *)
(* ------------------------------------------------------------------ *)

let chaos () =
  heading "R1"
    "chaos: quarantine recovery, generation fallback, transient-read \
     absorption";
  let module Store = Seed_storage.Store in
  let module Journal = Seed_storage.Journal in
  let module Faulty = Seed_storage.Faulty_io in
  let fresh_dir =
    let c = ref 0 in
    fun () ->
      incr c;
      let d =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "seed_bench_chaos_%d_%d" (Unix.getpid ()) !c)
      in
      if Sys.file_exists d then
        Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
      d
  in
  let payload = String.make 256 'c' in
  let json = ref [] in
  (* quarantine recovery: N committed records, F frames corrupted at
     evenly spaced offsets; open must resynchronize past every damaged
     region and keep the rest. Survival rate = replayed / (N - F). *)
  let n = 2_000 in
  let rows =
    List.map
      (fun faults ->
        let dir = fresh_dir () in
        let store, _, _, _ = ok (Store.open_dir dir) in
        for _ = 1 to n do
          ok (Store.append store [ payload ])
        done;
        Store.close store;
        let jpath = Filename.concat dir "journal.log" in
        let scan = ok (Journal.scan jpath) in
        let frames = Array.of_list scan.Journal.frames in
        let stride = Array.length frames / (faults + 1) in
        let fd = Unix.openfile jpath [ Unix.O_RDWR ] 0o644 in
        for k = 1 to faults do
          (* flip a CRC byte: every fault is a detectable mid-file region *)
          let off = frames.(k * stride).Journal.f_offset + 12 in
          ignore (Unix.lseek fd off Unix.SEEK_SET);
          let b = Bytes.create 1 in
          ignore (Unix.read fd b 0 1);
          Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x55));
          ignore (Unix.lseek fd off Unix.SEEK_SET);
          ignore (Unix.write fd b 0 1)
        done;
        Unix.close fd;
        let (s, _, replayed, rc), t =
          Report.time_of (fun () -> ok (Store.open_dir dir))
        in
        Store.close s;
        let survived = List.length replayed in
        let rate = float_of_int survived /. float_of_int (n - faults) in
        json :=
          Printf.sprintf
            "    {\"case\": \"quarantine\", \"records\": %d, \"faults\": %d, \
             \"survived\": %d, \"survival_rate\": %.4f, \"quarantined\": %d, \
             \"open_us\": %.2f}"
            n faults survived rate
            (List.length rc.Store.quarantined)
            (t *. 1e6)
          :: !json;
        [
          string_of_int n;
          string_of_int faults;
          string_of_int survived;
          Printf.sprintf "%.2f%%" (100.0 *. rate);
          string_of_int (List.length rc.Store.quarantined);
          Report.ms t;
        ])
      [ 1; 5; 20 ]
  in
  Report.table
    ~title:
      (Printf.sprintf
         "open with F corrupt frames quarantined mid-journal (%d records)" n)
    ~header:
      [ "records"; "faults"; "survived"; "survival"; "regions"; "open time" ]
    rows;
  (* generation fallback: primary snapshot corrupt, open walks the
     generation chain; salvage = fsck --repair + reopen *)
  let rows =
    List.map
      (fun size ->
        let snap = String.make size 's' in
        let dir = fresh_dir () in
        let store, _, _, _ = ok (Store.open_dir dir) in
        ok (Store.append store [ payload ]);
        ok (Store.compact store ~snapshot:snap);
        ok (Store.append store [ payload ]);
        ok (Store.compact store ~snapshot:snap);
        ok (Store.append store [ payload ]);
        Store.close store;
        let path = Filename.concat dir "snapshot.bin" in
        let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
        ignore (Unix.lseek fd (size / 2) Unix.SEEK_SET);
        ignore (Unix.write fd (Bytes.of_string "!") 0 1);
        Unix.close fd;
        let (s, recovered, _, rc), t =
          Report.time_of (fun () -> ok (Store.open_dir dir))
        in
        Store.close s;
        let gen = Option.value rc.Store.snapshot_generation ~default:0 in
        json :=
          Printf.sprintf
            "    {\"case\": \"generation_fallback\", \"snapshot_bytes\": %d, \
             \"generation\": %d, \"recovered\": %b, \"open_us\": %.2f}"
            size gen (recovered <> None) (t *. 1e6)
          :: !json;
        [
          string_of_int size;
          string_of_int gen;
          string_of_bool (recovered <> None);
          Report.ms t;
        ])
      [ 4_096; 262_144; 1_048_576 ]
  in
  Report.table
    ~title:"corrupt primary snapshot: open falls back to generation 1"
    ~header:[ "snapshot bytes"; "generation used"; "recovered"; "open time" ]
    rows;
  (* transient read absorption: the retry layer's cost on open, with
     sleep stubbed out so the numbers are CPU, not timer *)
  let rows =
    List.map
      (fun transients ->
        let dir = fresh_dir () in
        let store, _, _, _ = ok (Store.open_dir dir) in
        ok (Store.append store [ payload ]);
        ok (Store.compact store ~snapshot:(String.make 65_536 's'));
        for _ = 1 to 100 do
          ok (Store.append store [ payload ])
        done;
        Store.close store;
        let iters = 50 in
        let _, t =
          Report.time_of (fun () ->
              for _ = 1 to iters do
                let f = Faulty.create ~transient_reads:transients () in
                let s, _, _, _ =
                  ok
                    (Store.open_dir ~io:(Faulty.io f)
                       ~sleep:(fun _ -> ())
                       dir)
                in
                Store.close s
              done)
        in
        let per = t /. float_of_int iters in
        json :=
          Printf.sprintf
            "    {\"case\": \"transient_reads\", \"faults\": %d, \"open_us\": \
             %.2f}"
            transients (per *. 1e6)
          :: !json;
        [ string_of_int transients; Report.ms per ])
      [ 0; 1; 4 ]
  in
  Report.table
    ~title:
      "open of a 64 KiB snapshot + 100-record journal under EINTR bursts \
       (sleep stubbed)"
    ~header:[ "transient read faults"; "open time" ]
    rows;
  Report.write_json "chaos" (List.rev !json)

(* ------------------------------------------------------------------ *)
(* M1: MVCC read scaling - O(1) snapshots, multi-domain readers         *)
(*     against a committing writer, write-path overhead                 *)
(* ------------------------------------------------------------------ *)

let mvcc () =
  heading "M1"
    "MVCC: snapshot-grab latency, reader domains vs a committing writer, \
     write-path cost";
  let module Q = Seed_core.Query in
  let json = ref [] in
  (* snapshot grab: an O(1) pointer grab of the published root — the
     latency must stay flat as the database grows *)
  let rows =
    List.map
      (fun n ->
        let db = Workloads.seed_populate n in
        let iters = 100_000 in
        let _, t =
          Report.time_of (fun () ->
              for _ = 1 to iters do
                ignore (DB.snapshot_view db)
              done)
        in
        let grab = t /. float_of_int iters in
        let items = 4 * n in
        json :=
          Printf.sprintf
            "    {\"case\": \"snapshot_grab\", \"items\": %d, \"grab_ns\": \
             %.1f}"
            items (grab *. 1e9)
          :: !json;
        [ string_of_int items; Printf.sprintf "%.0f ns" (grab *. 1e9) ])
      [ 250; 2_500; 12_500 ]
  in
  Report.table ~title:"snapshot_view latency vs database size"
    ~header:[ "physical items"; "grab" ] rows;
  (* reader scaling: D reader domains each run a planner query per
     iteration against a freshly pinned snapshot while one writer
     domain commits at a fixed pace; the mutex baseline serializes the
     same query and the same writer behind one global lock. Both modes
     hold the writer to [writer_rate], so their readers run under the
     same write load; each row reports the rate the writer reached. *)
  let writer_rate = 500. in
  let n = 1_000 in
  let db = Workloads.seed_populate n in
  let subs =
    Array.init n (fun i ->
        Option.get (DB.resolve db (Workloads.data_name i ^ ".Description")))
  in
  let pred = Q.in_class "Action" in
  let run_mode mode domains =
    let stop = Atomic.make false in
    let commits = Atomic.make 0 in
    (* one global lock, handed off in FIFO order: a ticket taken under
       the mutex is served in turn, so readers re-taking the lock back
       to back cannot starve the writer (a bare [Mutex] is unfair) *)
    let mutex = Mutex.create () and turn = Condition.create () in
    let next_ticket = ref 0 and serving = ref 0 in
    let locked f =
      Mutex.lock mutex;
      let ticket = !next_ticket in
      incr next_ticket;
      while !serving <> ticket do
        Condition.wait turn mutex
      done;
      Mutex.unlock mutex;
      Fun.protect
        ~finally:(fun () ->
          Mutex.lock mutex;
          incr serving;
          Condition.broadcast turn;
          Mutex.unlock mutex)
        f
    in
    let reader () =
      let c = ref 0 in
      while not (Atomic.get stop) do
        (match mode with
        | `Mvcc ->
          (* lock-free: pin a snapshot, query it *)
          ignore (Q.count (DB.snapshot_view db) pred)
        | `Mutex -> locked (fun () -> ignore (Q.count (DB.view db) pred)));
        incr c
      done;
      !c
    in
    let writer () =
      let i = ref 0 and t0 = Unix.gettimeofday () in
      while not (Atomic.get stop) do
        (* commit [i] is due at [t0 + i / writer_rate] *)
        let wait = t0 +. (float_of_int !i /. writer_rate) -. Unix.gettimeofday () in
        if wait > 0. then Unix.sleepf wait;
        incr i;
        let id = subs.(!i mod n) in
        let commit () =
          ok (DB.set_value db id (Some (Value.String (string_of_int !i))))
        in
        (match mode with `Mvcc -> commit () | `Mutex -> locked commit);
        Atomic.incr commits
      done
    in
    let dur = 1.0 in
    let rds = List.init domains (fun _ -> Domain.spawn reader) in
    let wr = Domain.spawn writer in
    Unix.sleepf dur;
    Atomic.set stop true;
    let reads = List.fold_left (fun acc d -> acc + Domain.join d) 0 rds in
    Domain.join wr;
    ( float_of_int reads /. dur,
      float_of_int (Atomic.get commits) /. dur )
  in
  (* warm both paths once so domain spawn-up noise is off the clock *)
  ignore (run_mode `Mvcc 1);
  let rows =
    List.concat_map
      (fun domains ->
        List.map
          (fun (label, mode) ->
            let reads_s, commits_s = run_mode mode domains in
            json :=
              Printf.sprintf
                "    {\"case\": \"readers\", \"mode\": \"%s\", \"domains\": \
                 %d, \"reads_per_sec\": %.0f, \"writer_commits_per_sec\": \
                 %.0f}"
                label domains reads_s commits_s
              :: !json;
            [
              label;
              string_of_int domains;
              Printf.sprintf "%.0f" reads_s;
              Printf.sprintf "%.0f" commits_s;
            ])
          [ ("mvcc", `Mvcc); ("mutex", `Mutex) ])
      [ 1; 2; 4 ]
  in
  Report.table
    ~title:
      (Printf.sprintf
         "planner query on a db of %d clusters under sustained writer load \
          (%d cores — domains timeslice when cores < domains + 1), writer \
          paced at %.0f commits/s"
         n
         (Domain.recommended_domain_count ())
         writer_rate)
    ~header:[ "mode"; "reader domains"; "reads/s"; "commits/s reached" ] rows;
  (* single-threaded write path: the copy-on-write commit must stay
     within a small factor of the old in-place write. Minor words per op
     show where a change to the root's write path allocates. *)
  let db = Workloads.seed_populate 1_000 in
  let iters = 2_000 in
  let per_op f =
    let t, words = bench_op ~iters f in
    (t *. 1e6, words)
  in
  let names = Array.init (iters + 1) (Printf.sprintf "Write%05d") in
  let create_us, create_words =
    per_op (fun i -> ignore (ok (DB.create_object db ~cls:"Action" ~name:names.(i) ())))
  in
  let subs =
    Array.init 1_000 (fun i ->
        Option.get (DB.resolve db (Workloads.data_name i ^ ".Description")))
  in
  (* a distinct value per iteration, so no [set_value] stores the value
     already there *)
  let values =
    Array.init (iters + 1) (fun i -> Some (Value.String (Printf.sprintf "w%05d" i)))
  in
  let set_us, set_words =
    per_op (fun i -> ok (DB.set_value db subs.(i mod 1_000) values.(i)))
  in
  json :=
    Printf.sprintf
      "    {\"case\": \"write_path\", \"objects\": %d, \"create_us\": %.2f, \
       \"create_words\": %.0f, \"set_value_us\": %.2f, \"set_value_words\": %.0f}"
      (DB.object_count db) create_us create_words set_us set_words
    :: !json;
  Report.table ~title:"single-threaded write path (db of 1000 clusters)"
    ~header:[ "op"; "per op"; "minor words" ]
    [
      [ "create_object"; Printf.sprintf "%.2f us" create_us; Printf.sprintf "%.0f" create_words ];
      [ "set_value"; Printf.sprintf "%.2f us" set_us; Printf.sprintf "%.0f" set_words ];
    ];
  Report.write_json "mvcc"
    ~extra:
      [ ("host_cores", string_of_int (Domain.recommended_domain_count ())) ]
    (List.rev !json)

(* ------------------------------------------------------------------ *)

let suites =
  [
    ("fig1-2", fig1_2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("query", query);
    ("text", text);
    ("version", version);
    ("txn", txn);
    ("commit", commit);
    ("mvcc", mvcc);
    ("spades", spades);
    ("ablation", ablation);
    ("storage", storage);
    ("recovery", recovery);
    ("chaos", chaos);
  ]

let () =
  match Sys.argv with
  | [| _; "--measure-open"; dir |] -> measure_open dir
  | _ ->
    let requested =
      match Array.to_list Sys.argv with
      | _ :: (_ :: _ as names) -> names
      | _ -> List.map fst suites
    in
    List.iter
      (fun name ->
        match List.assoc_opt name suites with
        | Some f -> f ()
        | None ->
          Fmt.epr "unknown suite %S; available: %s@." name
            (String.concat ", " (List.map fst suites));
          exit 1)
      requested
