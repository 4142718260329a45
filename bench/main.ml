(* The SEED benchmark harness: one suite per experiment of DESIGN.md §3.

   The paper (ICDE 1986) reports no quantitative tables; its evaluation
   is the qualitative claim that SPADES-on-SEED became "considerably
   slower, but much more flexible". Each suite below regenerates the
   scenario of one figure (or of that claim) and prints timings/sizes so
   the *shape* — who wins, by what factor, where the costs sit — can be
   compared against the paper's narrative. Every timing goes through
   [Report.measure]; see EXPERIMENTS.md.

   Run all suites:      dune exec bench/main.exe
   Run one suite:       dune exec bench/main.exe -- fig4 spades *)

open Seed_util
open Seed_schema
open Report
module DB = Seed_core.Database
module Rigid = Seed_baseline.Rigid_store
module Raw = Seed_baseline.Raw_store
module Persist = Seed_core.Persist
module Store = Seed_storage.Store
module View = Seed_core.View
module Q = Seed_core.Query
module Frame = Seed_net.Frame
module Wire = Seed_net.Wire
module NS = Seed_net.Net_server

let ok = Seed_error.ok_exn

let heading id what =
  Fmt.pr "@.==================================================================@.";
  Fmt.pr "Experiment %s - %s@." id what;
  Fmt.pr "==================================================================@."

let fresh_store ?sync () =
  let store, _, _, _ = ok (Store.open_dir ?sync (fresh_dir ())) in
  store

let open_close ?io ?sleep dir =
  let s, recovered, replayed, rc = ok (Store.open_dir ?io ?sleep dir) in
  Store.close s;
  (recovered, replayed, rc)

(* ------------------------------------------------------------------ *)
(* F1/F2: the Fig. 1/2 workload: populate + retrieve-by-name            *)
(* ------------------------------------------------------------------ *)

let fig1_2 () =
  heading "F1/F2" "storing and retrieving the Fig. 1 structure (3 backends)";
  let n = 100 and size = 2000 in
  let counter = ref 0 in
  let next () =
    counter := (!counter + 1) mod size;
    Workloads.data_name !counter
  in
  let row backend ~populate ~find ~objects ~checks ~vague =
    [
      ("backend", Text backend);
      ("populate_us", us (measure populate));
      ("find_ns", ns (measure (fun () -> find (next ()))));
      ("objects", Int objects);
      ("checks_on_entry", Text checks);
      ("vague_data", Text vague);
    ]
  in
  let seed_db = Workloads.seed_populate size in
  let rigid_db = Workloads.rigid_populate size in
  let raw_db = Workloads.raw_populate size in
  table
    ~title:
      (Printf.sprintf "populate %d clusters; find by name in a db of %d clusters" n
         size)
    [
      row "seed"
        ~populate:(fun () -> ignore (Workloads.seed_populate n))
        ~find:(fun s -> ignore (DB.find_object seed_db s))
        ~objects:(DB.object_count seed_db) ~checks:"consistency only" ~vague:"yes";
      row "rigid"
        ~populate:(fun () -> ignore (Workloads.rigid_populate n))
        ~find:(fun s -> ignore (Rigid.mem rigid_db s))
        ~objects:(Rigid.object_count rigid_db) ~checks:"consistency + completeness"
        ~vague:"no";
      row "raw"
        ~populate:(fun () -> ignore (Workloads.raw_populate n))
        ~find:(fun s -> ignore (Raw.mem raw_db s))
        ~objects:(Raw.object_count raw_db) ~checks:"none" ~vague:"untyped";
    ]

(* ------------------------------------------------------------------ *)
(* F3: the vague-to-precise lifecycle of Fig. 3                         *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  heading "F3" "vague entry and stepwise refinement (Fig. 3 lifecycle)";
  let lifecycle f =
    let i = ref 0 in
    us
      (measure (fun () ->
           incr i;
           ignore (f !i)))
  in
  let seed_db = DB.create Workloads.schema in
  let rigid_db = Rigid.create Workloads.schema in
  let raw_db = Raw.create () in
  table ~title:"one full lifecycle (enter vague, refine twice) per backend"
    [
      [
        ("backend", Text "seed (re-classify in place)");
        ("lifecycle_us", lifecycle (Workloads.seed_vague_lifecycle seed_db));
        ("storable_stages", Text "3 of 3 (Thing, Data+Access, InputData+Read)");
        ("update_ops", Text "7");
        ("identity_kept", Text "yes");
        ("checked", Text "yes");
      ];
      [
        ("backend", Text "rigid (delete + re-insert)");
        ("lifecycle_us", lifecycle (Workloads.rigid_vague_lifecycle rigid_db));
        ("storable_stages", Text "1 of 3 (only the fully precise state)");
        ("update_ops", Text "4 + data re-entry");
        ("identity_kept", Text "no");
        ("checked", Text "yes");
      ];
      [
        ("backend", Text "raw (overwrite, unchecked)");
        ("lifecycle_us", lifecycle (Workloads.raw_vague_lifecycle raw_db));
        ("storable_stages", Text "3 of 3");
        ("update_ops", Text "7");
        ("identity_kept", Text "n/a");
        ("checked", Text "no");
      ];
    ]

(* ------------------------------------------------------------------ *)
(* F4: versions - delta storage vs full copies (Fig. 4)                 *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  heading "F4" "version storage and views: SEED deltas vs full copies (Fig. 4)";
  let n = 1000 in
  let churn = n / 20 in
  let round = ref 0 in
  (* SEED: delta snapshots, [churn] objects touched before each *)
  let db, descriptions = Workloads.seed_versioned_db n in
  let _ = ok (DB.create_version db) in
  let encoded () = String.length (Persist.encode_db db) in
  let base = encoded () in
  let seed_t =
    measure
      ~setup:(fun () ->
        incr round;
        Workloads.seed_churn db descriptions ~churn ~round:!round)
      (fun () -> ignore (ok (DB.create_version db)))
  in
  let seed_bytes = (encoded () - base) / rounds in
  (* rigid: full copies *)
  let rt = Workloads.rigid_versioned_db n in
  let copy = ref None in
  let rigid_t =
    measure
      ~setup:(fun () ->
        incr round;
        Workloads.rigid_churn rt n ~churn ~round:!round)
      (fun () -> copy := Some (Rigid.Full_copy.take rt))
  in
  table
    ~title:
      (Printf.sprintf
         "per-version storage cost, %d objects, %d touched per version" n churn)
    [
      [
        ("versions", Text "seed deltas");
        ("bytes_per_version", Int seed_bytes);
        ("snapshot_us", us seed_t);
      ];
      [
        ("versions", Text "full copies (Tichy-style)");
        ("bytes_per_version", Int (Rigid.Full_copy.size_bytes (Option.get !copy)));
        ("snapshot_us", us rigid_t);
      ];
    ];
  (* view reconstruction: reading an old version vs the current one *)
  let v1 = Version_id.trunk 1 in
  let counter = ref 0 in
  let next () =
    counter := (!counter + 1) mod n;
    Workloads.data_name !counter
  in
  ok (DB.select_version db None);
  let current, old =
    measure_ab
      (arm (fun () -> ignore (DB.find_object db (next ()))))
      (arm (fun () ->
           let v = ok (DB.view_at db v1) in
           ignore (View.find_object v (next ()))))
  in
  table ~title:"retrieval by name: current vs old version view"
    [
      [ ("view", Text "current version"); ("find_ns", ns current) ];
      [ ("view", Text "version 1.0 (view_at, then its extent)"); ("find_ns", ns old) ];
    ]

(* ------------------------------------------------------------------ *)
(* F5: patterns - one shared update vs K copies (Fig. 5)                *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  heading "F5" "pattern update propagation vs per-copy updates (Fig. 5)";
  let rows =
    List.map
      (fun k ->
        let db, deadline = Workloads.seed_pattern_family k in
        let raw = Workloads.raw_copy_family k in
        let flip = ref false in
        let seed_t, raw_t =
          measure_ab
            (arm (fun () ->
                 flip := not !flip;
                 let d = if !flip then Value.date 1986 12 31 else Value.date 1986 6 1 in
                 ok (DB.set_value db deadline (Some d))))
            (arm (fun () ->
                 for i = 0 to k - 1 do
                   Raw.set_attr raw ~name:(Printf.sprintf "P%04d" i) ~attr:"Deadline"
                     (Value.String "1986-12-31")
                 done))
        in
        [
          ("k", Int k);
          ("seed_pattern_us", us seed_t);
          ("raw_copies_us", us raw_t);
          ("copies_over_pattern", ratio raw_t seed_t);
        ])
      [ 10; 100; 1000 ]
  in
  table
    ~title:
      "updating one shared deadline of K inheritors: one pattern update vs K \
       copies"
    rows;
  (* the retrieval side of the trade: reading through the expansion *)
  let db, _ = Workloads.seed_pattern_family 100 in
  let raw = Workloads.raw_copy_family 100 in
  let member = Option.get (DB.find_object db "P0050") in
  let item = Option.get (Seed_core.Db_state.find_item (DB.raw db) member) in
  let seed_t, raw_t =
    measure_ab
      (arm (fun () ->
           ignore (View.child_v (DB.view db) (View.vitem_real item) ~role:"Deadline" ())))
      (arm (fun () -> ignore (Raw.get_attr raw ~name:"P0050" ~attr:"Deadline")))
  in
  table ~title:"reading one member's deadline (family of 100)"
    [
      [ ("read", Text "seed (query-time expansion)"); ("read_ns", ns seed_t) ];
      [ ("read", Text "raw (direct field)"); ("read_ns", ns raw_t) ];
    ]

(* ------------------------------------------------------------------ *)
(* S1: the SPADES claim - "considerably slower, but much more flexible" *)
(* ------------------------------------------------------------------ *)

let spades () =
  heading "S1" "SPADES-on-SEED vs SPADES-on-raw-structures";
  let n = 200 in
  let raw, seed =
    measure_ab
      (arm (fun () -> ignore (Workloads.spades_session_on_raw n)))
      (arm (fun () -> ignore (Workloads.spades_session_on_seed n)))
  in
  let rows =
    [ [ ("things", Int n); ("raw_ms", ms raw); ("seed_ms", ms seed); ("slowdown", ratio seed raw) ] ]
  in
  table
    ~title:
      (Printf.sprintf
         "identical specification session (%d things, flows, refinements), raw \
          structures vs SEED (consistency, versions, completeness, queries)"
         n)
    rows;
  Fmt.pr
    "@.paper: \"SPADES has become considerably slower, but much more \
     flexible\" - the slowdown above is this build's 'considerably'.@.";
  write_json "spades" rows

(* ------------------------------------------------------------------ *)
(* C1: ablation - what the permanent consistency checking costs         *)
(* ------------------------------------------------------------------ *)

(* A fresh db holding a [depth]-deep [Contained] chain of actions, and
   one call that adds an edge from a new leaf to the chain's deepest
   action and deletes it again: the ACYCLIC check walks the chain. *)
let edge_below_chain depth =
  let db = DB.create Workloads.schema in
  let prev = ref None in
  for i = 0 to depth - 1 do
    let a = ok (DB.create_object db ~cls:"Action" ~name:(Workloads.action_name i) ()) in
    Option.iter
      (fun p -> ignore (ok (DB.create_relationship db ~assoc:"Contained" ~endpoints:[ a; p ] ())))
      !prev;
    prev := Some a
  done;
  let deepest = Option.get !prev in
  let leaf = ok (DB.create_object db ~cls:"Action" ~name:"Leaf" ()) in
  fun () ->
    let r = ok (DB.create_relationship db ~assoc:"Contained" ~endpoints:[ leaf; deepest ] ()) in
    ok (DB.delete db r)

let ablation () =
  heading "C1" "cost of the permanent consistency checks";
  (* acyclicity: the DFS grows with the containment chain depth *)
  let acyclic depth =
    [ ("chain_depth", Int depth); ("add_remove_us", us (measure (edge_below_chain depth))) ]
  in
  table ~title:"ACYCLIC check: add+remove an edge below a chain"
    (List.map acyclic [ 10; 100; 500 ]);
  (* completeness: on-demand, full sweep *)
  let sweep n =
    let db = Workloads.seed_populate n in
    [
      ("objects", Int (2 * n));
      ("sweep_ms", ms (measure (fun () -> ignore (DB.completeness_report db))));
      ("diagnostics", Int (List.length (DB.completeness_report db)));
    ]
  in
  table ~title:"completeness sweep (on demand, whole database)"
    (List.map sweep [ 100; 500; 2000 ]);
  (* persistence: encode/decode scale *)
  let codec n =
    let db = Workloads.seed_populate n in
    let payload = Persist.encode_db db in
    [
      ("objects", Int (2 * n));
      ("bytes", Int (String.length payload));
      ("encode_ms", ms (measure (fun () -> ignore (Persist.encode_db db))));
      ("decode_ms", ms (measure (fun () -> ignore (ok (Persist.decode_db payload)))));
    ]
  in
  table ~title:"snapshot encode/decode (decode includes verification)"
    (List.map codec [ 100; 500; 2000 ]);
  (* structural pattern updates re-validate every inheritor context —
     the correctness price that value updates avoid *)
  let structural k =
    let db, _ = Workloads.seed_pattern_family k in
    let p = Option.get (DB.find_pattern db "Std") in
    let t =
      measure (fun () ->
          match
            DB.create_sub_object db ~parent:p ~role:"Note"
              ~value:(Value.String "structural") ()
          with
          | Ok id -> ok (DB.delete db id)
          | Error _ -> ())
    in
    [ ("k_inheritors", Int k); ("add_remove_us", us t) ]
  in
  table
    ~title:
      "structural pattern update: add and remove a pattern sub-object (each \
       re-validates all K inheritor contexts)"
    (List.map structural [ 10; 100; 1000 ])

(* ------------------------------------------------------------------ *)
(* P1: storage substrate micro-benchmarks                               *)
(* ------------------------------------------------------------------ *)

let storage () =
  heading "P1" "storage substrate micro-benchmarks";
  let payload = String.make 4096 'x' in
  let journal =
    ok (Seed_storage.Journal.open_ (Filename.concat (fresh_dir ()) "bench.log"))
  in
  table ~title:"primitives"
    [
      [
        ("primitive", Text "crc32 of 4 KiB");
        ("cost_us", us (measure (fun () -> ignore (Seed_storage.Crc32.digest payload))));
      ];
      [
        ("primitive", Text "journal append 4 KiB");
        ( "cost_us",
          us
            (measure (fun () ->
                 ok
                   (Seed_storage.Journal.append journal
                      [ Seed_storage.Journal.frame ~epoch:0 [ payload ] ]))) 
        );
      ];
    ];
  Seed_storage.Journal.close journal

(* ------------------------------------------------------------------ *)
(* P2: crash recovery - journal replay vs compacted open,               *)
(*     and the price of each durability policy                          *)
(* ------------------------------------------------------------------ *)

(* A [Persist.Session.open_] (verify on) of the store in [dir], run in a
   fresh process so its allocation and heap high-water are the open's
   own: prints allocated MiB and top heap MiB. *)
let measure_open dir =
  let a0 = Gc.allocated_bytes () in
  let s = ok (Persist.Session.open_ ~dir ()) in
  let alloc = Gc.allocated_bytes () -. a0 in
  let top = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  Persist.Session.close s;
  Printf.printf "%.1f %.1f\n" (alloc /. 1048576.) (float_of_int top /. 1048576.)

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
  Scanf.sscanf line " %f %f" (fun alloc top -> (alloc, top))

let recovery () =
  heading "P2" "recovery time and durability policy cost";
  let payload = String.make 512 'r' in
  (* open time as a function of journal length, against the same data
     folded into a snapshot by compaction *)
  let replay n =
    let journal_dir = fresh_dir () and compacted_dir = fresh_dir () in
    List.iter
      (fun dir ->
        let store, _, _, _ = ok (Store.open_dir dir) in
        for _ = 1 to n do
          ok (Store.append store [ payload ])
        done;
        if dir = compacted_dir then ok (Store.compact store ~snapshot:payload);
        Store.close store)
      [ journal_dir; compacted_dir ];
    let replayed = ref 0 in
    let replay_t, compacted_t =
      measure_ab
        (arm (fun () ->
             let _, records, _ = open_close journal_dir in
             replayed := List.length records))
        (arm (fun () -> ignore (open_close compacted_dir)))
    in
    [
      ("journal_records", Int n);
      ("replayed", Int !replayed);
      ("replay_ms", ms replay_t);
      ("compacted_ms", ms compacted_t);
      ("ratio", ratio replay_t compacted_t);
    ]
  in
  table ~title:"Store.open_dir: replaying an uncompacted journal vs a snapshot"
    (List.map replay [ 100; 1_000; 10_000 ]);
  (* the whole open of a SPADES document store: snapshot decoded into
     the root, indexes, verify; beside it the verify sweep alone. The
     opened database's live words are counted in this process, outside
     the timed child. *)
  let session n =
    let dir = fresh_dir () in
    let snapshot_bytes =
      let db, _ = Workloads.text_populate n in
      ok (Persist.save db ~dir);
      (Unix.stat (Filename.concat dir "snapshot.bin")).Unix.st_size
    in
    Gc.compact ();
    let usage = ref (0., 0.) in
    let open_t = measure (fun () -> usage := open_in_child dir) in
    let alloc, top = !usage in
    let db = ok (Persist.load ~verify:false ~dir ()) in
    let live = Obj.reachable_words (Obj.repr db) * (Sys.word_size / 8) in
    let v = View.current (DB.raw db) in
    let verify_t = measure (fun () -> ok (Seed_core.Consistency.check_database v)) in
    ( [
        ("case", Text "session_open");
        ("docs", Int n);
        ("snapshot_bytes", Int snapshot_bytes);
        ("open_ms", ms open_t);
        ("alloc_mib", Num (1, alloc));
        ("top_heap_mib", Num (1, top));
        ("live_mib", Num (1, float_of_int live /. 1048576.));
      ],
      [
        ("case", Text "verify");
        ("docs", Int n);
        ("verify_ms", ms verify_t);
        ("minor_words", words verify_t);
      ] )
  in
  let opens, verifies = List.split (List.map session [ 10_000; 100_000 ]) in
  table
    ~title:
      "Persist.Session.open_ of a SPADES document store (verify on, a fresh \
       process per open, timed from spawn to exit)"
    opens;
  table ~title:"its verify sweep alone, over the store loaded unverified (in process)"
    verifies;
  write_json "recovery" (opens @ verifies);
  (* append cost per durability policy *)
  let s_fsync = fresh_store ~sync:`Always_fsync () in
  let s_flush = fresh_store ~sync:`Flush_only () in
  let fsync_t, flush_t =
    measure_ab
      (arm (fun () -> ok (Store.append s_fsync [ payload ])))
      (arm (fun () -> ok (Store.append s_flush [ payload ])))
  in
  table ~title:"append 512 B under each sync policy"
    [
      [ ("policy", Text "`Always_fsync"); ("append_us", us fsync_t) ];
      [ ("policy", Text "`Flush_only"); ("append_us", us flush_t) ];
    ];
  Store.close s_fsync;
  Store.close s_flush

(* ------------------------------------------------------------------ *)
(* Q1: the query planner - extent/index-backed select vs a full scan    *)
(* X1: content search - trigram index vs full scan                      *)
(* ------------------------------------------------------------------ *)

(* The select a predicate compiles to without the planner: walk the
   whole item table, re-test every live independent and sort as
   [Q.select] does ([order]), so it differs from a select only in the
   access path. *)
let naive_select ~order v p =
  let module Item = Seed_core.Item in
  Seed_core.Db_state.fold_items (View.db v) ~init:[] ~f:(fun acc it ->
      if it.Item.body = Item.Independent && View.live_normal v it && Q.test p v it
      then it :: acc
      else acc)
  |> List.sort order

(* a select against [naive_select], arms alternated *)
let against_scan ~order v p =
  measure_ab
    (arm (fun () -> ignore (Q.select v p)))
    (arm (fun () -> ignore (naive_select ~order v p)))

(* A served read, in process: one session's request frame, re-sent with
   the session's next request id [id] (and its CRC) written in place, so
   a call allocates what the server does plus the two boxed numbers of
   the patch. *)
let served_request core conn id body =
  let frame = Bytes.of_string (Frame.encode (Wire.encode_request { Wire.req_id = 0L; body })) in
  let len = Bytes.length frame in
  fun () ->
    id := Int64.succ !id;
    Bytes.set_int64_le frame Frame.header_size !id;
    Bytes.set_int32_le frame 9
      (Seed_storage.Crc32.digest_sub frame ~pos:Frame.header_size
         ~len:(len - Frame.header_size));
    match NS.on_frame core conn (Bytes.unsafe_to_string frame) with
    | NS.Reply _ -> ()
    | NS.Reply_close _ | NS.Close -> failwith "served read refused"

let served_reads n =
  let srv = Seed_server.Server.create Workloads.schema in
  Workloads.served_populate (Seed_server.Server.database srv) n;
  let core = NS.create srv in
  let conn = NS.open_conn core in
  (match
     NS.on_frame core conn
       (Frame.encode
          (Wire.encode_request
             {
               Wire.req_id = 1L;
               body = Wire.Hello { protocol = Frame.version; client = "bench"; resume = None };
             }))
   with
  | NS.Reply _ -> ()
  | NS.Reply_close _ | NS.Close -> failwith "hello refused");
  let id = ref 1L in
  List.map
    (fun (key, body) ->
      let t = measure (served_request core conn id body) in
      [
        ("items", Int n);
        ("served", Text key);
        ("served_us", us t);
        ("served_words", words t);
      ])
    [
      ("find", Wire.Find (Workloads.text_doc_name (n / 2)));
      ("select_isa", Wire.Select_isa "OutputData");
      ( "search_keyword",
        Wire.Search { path = "Thing.Keywords"; needles = [ Workloads.served_keyword 17 ] } );
    ]

let query () =
  heading "Q1" "query planner: extent/index-backed select vs full scan";
  let by_id (a : Seed_core.Item.t) (b : Seed_core.Item.t) = Ident.compare a.id b.id in
  let rows =
    List.concat_map
      (fun n ->
        let db = Workloads.query_populate n in
        let v = DB.view db in
        List.map
          (fun (key, p) ->
            let indexed, scan = against_scan ~order:by_id v p in
            [
              ("items", Int n);
              ("query", Text key);
              ("hits", Int (List.length (Q.select v p)));
              ("indexed_us", us indexed);
              ("select_words", words indexed);
              ("scan_us", us scan);
              ("speedup", ratio scan indexed);
            ])
          [
            ("select_by_class", Q.in_class "C4");
            ("is_a_deep", Q.is_a "C6");
            ("name_lookup", Q.name_is (Workloads.query_name (n / 2)));
          ])
      [ 1_000; 10_000; 100_000 ]
  in
  table ~title:"planner-backed select vs naive item-table scan (per query)" rows;
  let served = served_reads 10_000 in
  table ~title:"served reads through Net_server.on_frame (per request)" served;
  write_json "query" (rows @ served)

let text () =
  heading "X1" "content search: trigram index vs full scan";
  let per_docs n =
    let db, carriers = Workloads.text_populate n in
    let v = DB.view db in
    let by_name (a : Seed_core.Item.t) (b : Seed_core.Item.t) =
      match (View.full_name v a, View.full_name v b) with
      | Some x, Some y -> String.compare x y
      | Some _, None -> -1
      | None, Some _ -> 1
      | None, None -> Ident.compare a.id b.id
    in
    let search (key, p) =
      let plan =
        match Q.explain v p with
        | Q.Indexed { texts = _ :: _; _ } -> "index"
        | Q.Indexed _ -> "index(other)"
        | Q.Scan _ -> "scan"
      in
      let indexed, scan = against_scan ~order:by_name v p in
      [
        ("case", Text "search");
        ("docs", Int n);
        ("query", Text key);
        ("plan", Text plan);
        ("hits", Int (List.length (Q.select v p)));
        ("select_us", us indexed);
        ("select_words", words indexed);
        ("scan_us", us scan);
        ("speedup", ratio scan indexed);
      ]
    in
    let searches =
      List.map search
        [
          ("selective", Q.contains "" "fault quarantine beacon");
          ("common", Q.contains "" "recovery");
          ("negative", Q.contains "" "holographic xylophone");
          ("conjunction", Q.matches "" [ "fault quarantine"; "beacon" ]);
          ("path_scoped", Q.contains "Thing.Description" "quarantine");
        ]
    in
    (* wholesale build: what a branch switch or reopen pays *)
    let rebuild =
      measure (fun () ->
          DB.set_text_index_enabled db false;
          DB.set_text_index_enabled db true)
    in
    let st = DB.stats db in
    let build =
      [
        ("case", Text "build");
        ("docs", Int n);
        ("rebuild_us", us rebuild);
        ("trigrams", Int st.DB.st_text_trigrams);
        ("postings", Int st.DB.st_text_postings);
        ("bytes", Int st.DB.st_text_bytes);
      ]
    in
    (* incremental maintenance: set_value with the index on vs off, each
       to a text not stored before. The index folds its overlay once it
       passes 1/16 of the documents (at least 256): distinct touches
       enough for five overlays put at least four folds, and one merge
       of the recent tier into the main one, in every round; the round
       that turns the index on starts from a fresh build. Words are
       minor and direct major: a fold's postings are large blocks,
       allocated straight in the major heap. *)
    let touches = 5 * max 257 ((n / 16) + 1) in
    let body = ref n in
    let touch_all () =
      for i = 1 to touches do
        incr body;
        ok
          (DB.set_value db
             carriers.(i * 7919 mod n)
             (Some (Value.String (Workloads.text_body ~n !body))))
      done
    in
    let on, off =
      measure_ab
        (arm ~setup:(fun () -> DB.set_text_index_enabled db true) touch_all)
        (arm ~setup:(fun () -> DB.set_text_index_enabled db false) touch_all)
    in
    DB.set_text_index_enabled db true;
    let on = per touches on and off = per touches off in
    let update =
      [
        ("case", Text "update");
        ("docs", Int n);
        ("touches", Int touches);
        ("indexed_us", us on);
        ("plain_us", us off);
        ("overhead", ratio on off);
        ("indexed_words", words on);
        ("plain_words", words off);
        ("indexed_major", major_words on);
        ("plain_major", major_words off);
      ]
    in
    (searches, build, update)
  in
  let results = List.map per_docs [ 10_000; 100_000 ] in
  let searches = List.concat_map (fun (s, _, _) -> s) results in
  let builds = List.map (fun (_, b, _) -> b) results in
  let updates = List.map (fun (_, _, u) -> u) results in
  table ~title:"containment select: trigram index vs naive scan" searches;
  table ~title:"wholesale index build" builds;
  table ~title:"set_value with the index on vs off, per touch" updates;
  write_json "text" (searches @ builds @ updates)

(* ------------------------------------------------------------------ *)
(* V1: materialized version views - cached reads vs resolution scans    *)
(* ------------------------------------------------------------------ *)

let version () =
  heading "V1"
    "version reads: materialized extents (cold/warm) vs the current view";
  let rows =
    List.concat_map
      (fun (items, versions) ->
        let db, vids = Workloads.versioned_query_db ~items ~versions in
        (* the newest version: items untouched since round 1 resolve
           through the whole ancestor chain — the worst case for the
           extent build *)
        let vid = List.nth vids (List.length vids - 1) in
        let v = View.at (DB.raw db) vid in
        let name = Workloads.query_name (items / 2) in
        List.map
          (fun (key, f) ->
            (* current: the same read on the current state's extents;
               warm: every later read of the version view is a lookup in
               its extent *)
            let current, warm =
              measure_ab
                (arm (fun () -> f (View.current (DB.raw db))))
                (arm (fun () -> f v))
            in
            (* cold: a fresh frozen handle has an empty version cache, so
               its first view pays the reconstruction sweep *)
            let fresh = ref (DB.raw db) in
            let cold =
              measure
                ~setup:(fun () -> fresh := Seed_core.Db_state.freeze (DB.raw db))
                (fun () -> f (View.at !fresh vid))
            in
            [
              ("items", Int items);
              ("versions", Int versions);
              ("query", Text key);
              ("current_us", us current);
              ("cold_us", us cold);
              ("warm_us", us warm);
            ])
          [
            ("select_by_class", fun v -> ignore (Q.select v (Q.in_class "C4")));
            ("is_a_deep", fun v -> ignore (Q.select v (Q.is_a "C6")));
            ("name_lookup", fun v -> ignore (Q.select v (Q.name_is name)));
            ("find_object", fun v -> ignore (View.find_object v name));
          ])
      [ (2_000, 8); (10_000, 16); (10_000, 64) ]
  in
  table ~title:"reads at the deepest version vs the same read on the current view"
    rows;
  write_json "version" rows

(* ------------------------------------------------------------------ *)
(* T1: transaction frames - one-frame commit, root-swap rollback,       *)
(*     and recovery past a torn transaction                             *)
(* ------------------------------------------------------------------ *)

let txn () =
  heading "T1"
    "transaction frames: one-frame commit, root-swap rollback, torn-txn \
     recovery";
  let payload = String.make 512 't' in
  (* K records as K one-record transactions (K frames, K fsyncs) vs one
     K-record transaction (one frame, one fsync) under `Always_fsync,
     each arm on its own fresh store *)
  let commit k =
    let batch = List.init k (fun _ -> payload) in
    let k_store = fresh_store ~sync:`Always_fsync () in
    let store = fresh_store ~sync:`Always_fsync () in
    let k_txns, one_txn =
      measure_ab
        (arm (fun () -> List.iter (fun p -> ok (Store.append k_store [ p ])) batch))
        (arm (fun () -> ok (Store.append store batch)))
    in
    Store.close k_store;
    Store.close store;
    [
      ("case", Text "one_frame_commit");
      ("records", Int k);
      ("k_txns_us", us k_txns);
      ("one_txn_us", us one_txn);
      ("speedup", ratio k_txns one_txn);
    ]
  in
  let commits = List.map commit [ 1; 8; 64 ] in
  table
    ~title:
      "committing K records under `Always_fsync: K one-record transactions \
       vs one K-record transaction"
    commits;
  (* rollback: a failed transaction of B ops dropped by swapping back
     to the savepoint root (O(1)) vs the pre-transaction alternative —
     restoring the database from a serialized snapshot (O(db), what
     Server.checkin used to do); the JSON field keeps its historical
     name [undo_us] so runs stay comparable across revisions *)
  let rollback_ops = 20 in
  let rollback n =
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
    let undo, restore =
      measure_ab (arm run_txn)
        (arm (fun () -> ignore (ok (Persist.decode_db (Persist.encode_db db)))))
    in
    [
      ("case", Text "rollback");
      ("objects", Int (2 * n));
      ("txn_ops", Int rollback_ops);
      ("undo_us", us undo);
      ("snapshot_restore_us", us restore);
      ("speedup", ratio restore undo);
    ]
  in
  let rollbacks = List.map rollback [ 100; 1_000; 5_000 ] in
  table
    ~title:
      (Printf.sprintf
         "rolling back a failed %d-op transaction: root swap vs snapshot \
          restore"
         rollback_ops)
    rollbacks;
  (* recovery past a torn transaction: a crash mid-flush leaves the last
     transaction's frame cut short at the journal's tail; open must drop
     it whole and cut it off, so every round opens a copy of the torn
     store *)
  let torn n =
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
    let torn_files = files dir in
    let result = ref None in
    let t =
      measure
        ~setup:(fun () -> restore dir torn_files)
        (fun () -> result := Some (open_close dir))
    in
    let _, replayed, rc = Option.get !result in
    [
      ("case", Text "torn_txn_recovery");
      ("committed", Int n);
      ("replayed", Int (List.length replayed));
      ("bytes_dropped", Int rc.Store.bytes_dropped);
      ("open_us", us t);
    ]
  in
  let torns = List.map torn [ 100; 1_000; 10_000 ] in
  table ~title:"open with a 16-record transaction torn at the journal tail" torns;
  write_json "txn" (commits @ rollbacks @ torns)

(* ------------------------------------------------------------------ *)
(* T2: group-commit coalescing - writer threads over one journal        *)
(* ------------------------------------------------------------------ *)

let commit_note =
  "each call commits 1024 2-record transactions spread over the writer \
   threads, which start together behind a barrier; writer wake-up and the \
   commit-window quantum (the OS sleep floor, tens of microseconds) sit \
   between fsyncs, so txns/s ramps with the writer count and varies from run \
   to run, while the fsyncs/txn and max_batch columns are the \
   hardware-independent measure of coalescing"

let commit () =
  heading "T2"
    "group commit: committed txns/s and fsyncs/txn under `Always_fsync \
     vs writer threads";
  let module CD = Seed_storage.Commit_daemon in
  let payload = String.make 512 'c' in
  let txns_per_call = 1024 in
  (* Writers are sys-threads, not domains: on few cores the blocking
     fsync releases the runtime lock, which is exactly the window where
     the other writers enqueue, and thread wake-up is cheaper than
     cross-domain wake-up. *)
  let run writers =
    let store = fresh_store ~sync:`Always_fsync () in
    let txns = Atomic.make 0 in
    let call () =
      let ready = Atomic.make 0 in
      let worker () =
        Atomic.incr ready;
        while Atomic.get ready < writers do
          Thread.yield ()
        done;
        for _ = 1 to txns_per_call / writers do
          ok (Store.append store [ payload; payload ]);
          Atomic.incr txns
        done
      in
      List.iter Thread.join (List.init writers (fun _ -> Thread.create worker ()))
    in
    let t = measure call in
    let s = Store.write_stats store in
    Store.close store;
    (writers, t, s, float_of_int s.CD.fsyncs /. float_of_int (Atomic.get txns))
  in
  let runs = List.map run [ 1; 2; 4; 8; 16; 32 ] in
  let _, one_writer, _, _ = List.hd runs in
  let rows =
    List.map
      (fun (writers, t, s, fsyncs_per_txn) ->
        [
          ("case", Text "group_commit_scaling");
          ("writers", Int writers);
          ("txns_per_sec", rate ~count:txns_per_call t);
          ("speedup_vs_1_writer", ratio one_writer t);
          ("fsyncs_per_txn", Num (3, fsyncs_per_txn));
          ("max_batch", Int s.CD.max_batch);
          ("queue_hwm", Int s.CD.queue_hwm);
        ])
      runs
  in
  table
    ~title:
      (Printf.sprintf
         "2-record transactions under `Always_fsync (%d cores): coalesced \
          commits over one journal"
         (Domain.recommended_domain_count ()))
    rows;
  write_json "commit" ~notes:[ ("environment_note", commit_note) ] rows

(* ------------------------------------------------------------------ *)
(* R1: chaos - recovery under injected corruption and read faults       *)
(* ------------------------------------------------------------------ *)

let chaos () =
  heading "R1"
    "chaos: quarantine recovery, generation fallback, transient-read \
     absorption";
  let module Journal = Seed_storage.Journal in
  let module Faulty = Seed_storage.Faulty_io in
  let payload = String.make 256 'c' in
  (* quarantine recovery: N committed records, F frames corrupted at
     evenly spaced offsets; open must resynchronize past every damaged
     region and keep the rest (the regions stay in place, so every open
     sees the same journal). Survival rate = replayed / (N - F). *)
  let n = 2_000 in
  let quarantine faults =
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
    let result = ref None in
    let t = measure (fun () -> result := Some (open_close dir)) in
    let _, replayed, rc = Option.get !result in
    let survived = List.length replayed in
    [
      ("case", Text "quarantine");
      ("records", Int n);
      ("faults", Int faults);
      ("survived", Int survived);
      ("survival_rate", Num (4, float_of_int survived /. float_of_int (n - faults)));
      ("quarantined", Int (List.length rc.Store.quarantined));
      ("open_us", us t);
    ]
  in
  let quarantines = List.map quarantine [ 1; 5; 20 ] in
  table
    ~title:
      (Printf.sprintf
         "open with F corrupt frames quarantined mid-journal (%d records)" n)
    quarantines;
  (* generation fallback: primary snapshot corrupt, open walks the
     generation chain and promotes generation 1, so every round opens a
     copy of the damaged store *)
  let fallback size =
    let snap = String.make size 's' in
    let dir = fresh_dir () in
    let store, _, _, _ = ok (Store.open_dir dir) in
    ok (Store.append store [ payload ]);
    ok (Store.compact store ~snapshot:snap);
    ok (Store.append store [ payload ]);
    ok (Store.compact store ~snapshot:snap);
    ok (Store.append store [ payload ]);
    Store.close store;
    let fd = Unix.openfile (Filename.concat dir "snapshot.bin") [ Unix.O_RDWR ] 0o644 in
    ignore (Unix.lseek fd (size / 2) Unix.SEEK_SET);
    ignore (Unix.write fd (Bytes.of_string "!") 0 1);
    Unix.close fd;
    let damaged = files dir in
    let result = ref None in
    let t =
      measure ~setup:(fun () -> restore dir damaged) (fun () -> result := Some (open_close dir))
    in
    let recovered, _, rc = Option.get !result in
    [
      ("case", Text "generation_fallback");
      ("snapshot_bytes", Int size);
      ("generation", Int (Option.value rc.Store.snapshot_generation ~default:0));
      ("recovered", Bool (recovered <> None));
      ("open_us", us t);
    ]
  in
  let fallbacks = List.map fallback [ 4_096; 262_144; 1_048_576 ] in
  table ~title:"corrupt primary snapshot: open falls back to generation 1" fallbacks;
  (* transient read absorption: the retry layer's cost on open, with
     sleep stubbed out so the numbers are CPU, not timer *)
  let transient faults =
    let dir = fresh_dir () in
    let store, _, _, _ = ok (Store.open_dir dir) in
    ok (Store.append store [ payload ]);
    ok (Store.compact store ~snapshot:(String.make 65_536 's'));
    for _ = 1 to 100 do
      ok (Store.append store [ payload ])
    done;
    Store.close store;
    let t =
      measure (fun () ->
          let f = Faulty.create ~transient_reads:faults () in
          ignore (open_close ~io:(Faulty.io f) ~sleep:(fun _ -> ()) dir))
    in
    [ ("case", Text "transient_reads"); ("faults", Int faults); ("open_us", us t) ]
  in
  let transients = List.map transient [ 0; 1; 4 ] in
  table
    ~title:
      "open of a 64 KiB snapshot + 100-record journal under EINTR bursts \
       (sleep stubbed)"
    transients;
  write_json "chaos" (quarantines @ fallbacks @ transients)

(* ------------------------------------------------------------------ *)
(* M1: MVCC read scaling - O(1) snapshots, multi-domain readers         *)
(*     against a committing writer, write-path overhead                 *)
(* ------------------------------------------------------------------ *)

(* Words per edit-style check-in: a checkout and a check-in of three
   value updates and one keyword sub-object on one document, as the
   served edit workload sends them. The same check-ins go to a durable
   server ([`Flush_only], so no fsync wait) and to an in-memory one,
   alternating round by round: the in-memory arm is the apply (lock
   cover, name resolution, checks, the update itself), and the durable
   arm's excess is the flush (record encoding, journal frame, commit
   queue, write). Documents are visited in turn, each keyword a new
   index below the role's maximum of 8. *)
let checkin_row () =
  let module Server = Seed_server.Server in
  let module P = Seed_server.Protocol in
  let docs = 4_000 in
  let session =
    ok (Persist.Session.open_ ~dir:(fresh_dir ()) ~schema:Workloads.schema ())
  in
  Workloads.served_populate (Persist.Session.db session) docs;
  ok (Persist.Session.compact session);
  let durable = Server.of_session session in
  let memory = Server.create Workloads.schema in
  Workloads.served_populate (Server.database memory) docs;
  let names = Array.init docs Workloads.text_doc_name in
  let batches =
    Array.init (1 lsl 14) (fun i ->
        let d = names.(i mod docs) in
        let text k = Some (Value.String (Printf.sprintf "revision %d of %s (%d)" i d k)) in
        let set k = P.Set_value { path = d ^ ".Description"; value = text k } in
        ( [ d ],
          [
            set 0;
            set 1;
            P.Create_sub
              { owner = d; role = "Keywords"; index = None; value = text 2 };
            set 3;
          ] ))
  in
  let arm_of srv =
    let i = ref 0 in
    arm (fun () ->
        let names, ops = batches.(!i land ((1 lsl 14) - 1)) in
        incr i;
        ok (Server.checkout srv ~client:"bench" ~names);
        ok (Server.checkin srv ~client:"bench" ops))
  in
  let d, m = measure_ab (arm_of durable) (arm_of memory) in
  Persist.Session.close session;
  [
    ("case", Text "checkin");
    ("docs", Int docs);
    ("ops_per_checkin", Int 4);
    ("checkin_us", us d);
    ("checkin_words", words d);
    ("apply_us", us m);
    ("apply_words", words m);
    ("flush_words", Num (0, d.words -. m.words));
  ]

let mvcc () =
  heading "M1"
    "MVCC: snapshot-grab latency, reader domains vs a committing writer, \
     write-path cost";
  (* snapshot grab: an O(1) pointer grab of the published root — the
     latency must stay flat as the database grows *)
  let grab n =
    let db = Workloads.seed_populate n in
    [
      ("case", Text "snapshot_grab");
      ("items", Int (4 * n));
      ("grab_ns", ns (measure (fun () -> ignore (DB.snapshot_view db))));
    ]
  in
  let grabs = List.map grab [ 250; 2_500; 12_500 ] in
  table ~title:"snapshot_view latency vs database size" grabs;
  (* reader scaling: D reader domains share [reads] planner queries,
     each against a freshly pinned snapshot, while one writer domain
     commits at a fixed pace; the mutex baseline serializes the same
     query and the same writer behind one global lock. Both modes hold
     the writer to [writer_rate], so their readers run under the same
     write load; each row reports the rate the writer reached. *)
  let writer_rate = 500. and reads = 1024 in
  let n = 1_000 in
  let db = Workloads.seed_populate n in
  let subs =
    Array.init n (fun i ->
        Option.get (DB.resolve db (Workloads.data_name i ^ ".Description")))
  in
  let pred = Q.in_class "Action" in
  let run_mode mode domains rates () =
    let stop = Atomic.make false in
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
      for _ = 1 to reads / domains do
        match mode with
        | `Mvcc ->
          (* lock-free: pin a snapshot, query it *)
          ignore (Q.count (DB.snapshot_view db) pred)
        | `Mutex -> locked (fun () -> ignore (Q.count (DB.view db) pred))
      done
    in
    (* the writer's pace needs its own clock; it returns the rate it
       reached *)
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
        match mode with `Mvcc -> commit () | `Mutex -> locked commit
      done;
      float_of_int !i /. (Unix.gettimeofday () -. t0)
    in
    let wr = Domain.spawn writer in
    List.iter Domain.join (List.init domains (fun _ -> Domain.spawn reader));
    Atomic.set stop true;
    rates := Domain.join wr :: !rates
  in
  let readers =
    List.concat_map
      (fun domains ->
        let mvcc_rates = ref [] and mutex_rates = ref [] in
        let mvcc_t, mutex_t =
          measure_ab
            (arm (run_mode `Mvcc domains mvcc_rates))
            (arm (run_mode `Mutex domains mutex_rates))
        in
        List.map
          (fun (label, t, rates) ->
            [
              ("case", Text "readers");
              ("mode", Text label);
              ("domains", Int domains);
              ("reads_per_sec", rate ~count:reads t);
              ("writer_commits_per_sec", Num (0, median (Array.of_list !rates)));
            ])
          [ ("mvcc", mvcc_t, mvcc_rates); ("mutex", mutex_t, mutex_rates) ])
      [ 1; 2; 4 ]
  in
  table
    ~title:
      (Printf.sprintf
         "planner query on a db of %d clusters under sustained writer load \
          (%d cores — domains timeslice when cores < domains + 1), writer \
          paced at %.0f commits/s"
         n
         (Domain.recommended_domain_count ())
         writer_rate)
    readers;
  (* single-threaded write path: the copy-on-write commit must stay
     within a small factor of the old in-place write. Minor words per op
     show where a change to the root's write path allocates. Names and
     values are made before the clock starts, and every set_value stores
     a value not there before. *)
  let db = Workloads.seed_populate 1_000 in
  let made = 1 lsl 17 in
  let names = Array.init made (Printf.sprintf "Write%06d") in
  let values = Array.map (fun s -> Some (Value.String s)) names in
  let subs =
    Array.init 1_000 (fun i ->
        Option.get (DB.resolve db (Workloads.data_name i ^ ".Description")))
  in
  let created = ref 0 and set = ref 0 in
  let create_t =
    measure (fun () ->
        incr created;
        ignore (ok (DB.create_object db ~cls:"Action" ~name:names.(!created) ())))
  in
  let set_t =
    measure (fun () ->
        incr set;
        ok (DB.set_value db subs.(!set mod 1_000) values.(!set)))
  in
  let write_path =
    [
      ("case", Text "write_path");
      ("objects", Int (DB.object_count db));
      ("create_us", us create_t);
      ("create_words", words create_t);
      ("set_value_us", us set_t);
      ("set_value_words", words set_t);
    ]
  in
  (* edge churn: a create+delete of an edge costs the same however many
     came and went before it. Four batches of 1000 pairs on one fresh
     db, each timed whole; the row shows the first and the fourth. *)
  let pairs = 1_000 in
  let pair = edge_below_chain 10 in
  let batch () =
    let t, w, _ = time_calls pair pairs in
    (t /. float_of_int pairs, w /. float_of_int pairs)
  in
  let fresh_t, fresh_w = batch () in
  ignore (batch ());
  ignore (batch ());
  let late_t, late_w = batch () in
  let churn =
    [
      ("case", Text "edge_churn");
      ("chain_depth", Int 10);
      ("pairs_per_batch", Int pairs);
      ("fresh_us", Num (2, fresh_t *. 1e6));
      ("fresh_words", Num (0, fresh_w));
      ("after_3000_us", Num (2, late_t *. 1e6));
      ("after_3000_words", Num (0, late_w));
    ]
  in
  table ~title:"single-threaded write path (db of 1000 clusters)" [ write_path ];
  table ~title:"edge churn: create+delete of an edge below a 10-deep chain" [ churn ];
  let checkin = checkin_row () in
  table
    ~title:
      "edit check-in through Server.checkin (checkout, 3 Set_value + 1 \
       Create_sub): durable vs in memory"
    [ checkin ];
  write_json "mvcc" (grabs @ readers @ [ write_path; churn; checkin ])

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
