(* The networked server: framing, wire codecs, session lifecycle with
   TTL leases, replay idempotency, admission control, graceful drain —
   all driven deterministically through the transport-agnostic core —
   plus a threaded TCP loopback test with concurrent clients. *)

open Seed_util
open Helpers
module Frame = Seed_net.Frame
module Wire = Seed_net.Wire
module Transport = Seed_net.Transport
module FT = Seed_net.Faulty_transport
module NS = Seed_net.Net_server
module NC = Seed_net.Net_client
module Server = Seed_server.Server
module Protocol = Seed_server.Protocol
module DB = Seed_core.Database
module Query = Seed_core.Query
module View = Seed_core.View

(* --- frame ------------------------------------------------------------ *)

let test_frame_roundtrip () =
  List.iter
    (fun payload ->
      let f = Frame.encode payload in
      Alcotest.(check string) "roundtrip" payload (ok (Frame.decode f)))
    [ ""; "x"; "hello frame"; String.make 4096 '\xAB' ]

let test_frame_detects_corruption () =
  let f = Bytes.of_string (Frame.encode "an important payload") in
  (* flip one bit in the payload: the CRC must catch it *)
  let i = Frame.header_size + 3 in
  Bytes.set f i (Char.chr (Char.code (Bytes.get f i) lxor 0x10));
  check_err "bit flip"
    (function Seed_error.Corrupt _ -> true | _ -> false)
    (Frame.decode (Bytes.to_string f));
  (* bad magic *)
  let f = Bytes.of_string (Frame.encode "p") in
  Bytes.set f 0 'X';
  check_err "bad magic"
    (function Seed_error.Corrupt _ -> true | _ -> false)
    (Frame.decode (Bytes.to_string f));
  (* truncation *)
  let f = Frame.encode "some payload" in
  check_err "truncated"
    (function Seed_error.Corrupt _ -> true | _ -> false)
    (Frame.decode (String.sub f 0 (String.length f - 3)));
  check_err "short header"
    (function Seed_error.Corrupt _ -> true | _ -> false)
    (Frame.decode (String.sub f 0 5))

let test_frame_length_bounded () =
  (* a length field past the bound is corruption, not an allocation *)
  let f = Bytes.of_string (Frame.encode "p") in
  Bytes.set f 7 '\xFF';
  Bytes.set f 8 '\x7F';
  check_err "oversize length"
    (function Seed_error.Corrupt _ -> true | _ -> false)
    (Frame.decode (Bytes.to_string f))

(* --- wire codecs ------------------------------------------------------ *)

let roundtrip_req r =
  match Wire.decode_request (Wire.encode_request r) with
  | Ok r' -> Alcotest.(check bool) "request roundtrip" true (r = r')
  | Error e -> Alcotest.failf "decode: %s" (Seed_error.to_string e)

let roundtrip_resp r =
  match Wire.decode_response (Wire.encode_response r) with
  | Ok r' -> Alcotest.(check bool) "response roundtrip" true (r = r')
  | Error e -> Alcotest.failf "decode: %s" (Seed_error.to_string e)

let test_wire_request_roundtrips () =
  List.iteri
    (fun i body -> roundtrip_req { Wire.req_id = Int64.of_int i; body })
    [
      Wire.Hello { protocol = 1; client = "alice"; resume = None };
      Wire.Hello
        { protocol = 1; client = "bob"; resume = Some (42L, -17L) };
      Wire.Checkout { names = [ "A"; "B" ]; wait_timeout = None };
      Wire.Checkout { names = [ "A" ]; wait_timeout = Some 2.5 };
      Wire.Checkin
        [
          Protocol.Create_object { cls = "Data"; name = "X"; pattern = true };
          Protocol.Create_sub
            {
              owner = "X";
              role = "r";
              index = Some 3;
              value = Some (Seed_schema.Value.Date { year = 1986; month = 2; day = 5 });
            };
          Protocol.Create_rel
            { assoc = "Read"; endpoints = [ "X"; "Y" ]; pattern = false };
          Protocol.Set_value
            { path = "X.r"; value = Some (Seed_schema.Value.Float 1.5) };
          Protocol.Rename { name = "X"; new_name = "Y" };
          Protocol.Reclassify_obj { name = "X"; to_ = "Data" };
          Protocol.Reclassify_rel
            { assoc = "Read"; endpoints = [ "X"; "Y" ]; to_ = "Write" };
          Protocol.Delete { path = "X.r[1]" };
          Protocol.Inherit { pattern = "P"; inheritor = "X" };
          Protocol.Set_text { path = "X.Revised"; text = "1986-02-05" };
        ];
      Wire.Release;
      Wire.Find "Alarms";
      Wire.Select_isa "Data";
      Wire.Stats;
      Wire.Ping;
      Wire.Bye;
    ]

(* one response of every kind *)
let every_response =
  List.mapi
    (fun i rbody -> { Wire.rsp_id = Int64.of_int i; rbody })
    [
      Wire.Welcome
        { protocol = 1; session = 7L; token = -3L; ttl = 30.0; resumed = true };
      Wire.Done;
      Wire.Found None;
      Wire.Found (Some "Data.Text");
      Wire.Names [| "A"; "B"; "C" |];
      Wire.Stats_reply
        {
          Wire.sv_sessions = 1;
          sv_max_sessions = 2;
          sv_in_flight = 3;
          sv_max_in_flight = 4;
          sv_served = 5;
          sv_busy_rejects = 6;
          sv_reaped_sessions = 7;
          sv_checkins = 8;
          sv_locks_held = 9;
          sv_lock_waiters = 10;
          sv_objects = 11;
          sv_relationships = 12;
          sv_versions = 13;
        };
      Wire.Pong;
      Wire.Busy { retry_after = 0.25 };
      Wire.Draining;
      Wire.Err
        { code = Wire.Session_expired; message = "gone"; retryable = false };
    ]

let test_wire_response_roundtrips () = List.iter roundtrip_resp every_response

(* The one-buffer encoder gives the bytes of the payload encoder and
   [Frame.encode], for every kind of response, with one buffer reused
   across them, a reply past the buffer's kept size among them. Two
   frames are pinned byte for byte as the protocol-3 encoder wrote them
   before the one-buffer path existed. *)
let test_response_frame_bytes () =
  let w = Buffer.create 16 in
  let big = { Wire.rsp_id = 99L; rbody = Wire.Names (Array.init 20_000 (Printf.sprintf "Name%06d")) } in
  List.iter
    (fun r ->
      Alcotest.(check string) "one-buffer frame"
        (Frame.encode (Wire.encode_response r))
        (Wire.response_frame w r))
    (every_response @ [ big ] @ every_response);
  Alcotest.(check string) "found frame"
    "\x53\x45\x4e\x46\x03\x0f\x00\x00\x00\xf0\xeb\x14\xc9\x07\x00\x00\x00\x00\x00\x00\x00\x02\x01\x04\x44\x61\x74\x61"
    (Wire.response_frame w { Wire.rsp_id = 7L; rbody = Wire.Found (Some "Data") });
  Alcotest.(check string) "names frame"
    "\x53\x45\x4e\x46\x03\x16\x00\x00\x00\x25\x09\x3b\x64\x09\x00\x00\x00\x00\x00\x00\x00\x03\x02\x06\x41\x6c\x61\x72\x6d\x73\x04\x4b\x65\x70\x74"
    (Wire.response_frame w { Wire.rsp_id = 9L; rbody = Wire.Names [| "Alarms"; "Kept" |] })

let test_wire_garbage_rejected () =
  check_err "garbage request"
    (fun _ -> true)
    (Wire.decode_request "\x99\xFFnot a request");
  check_err "empty" (fun _ -> true) (Wire.decode_request "")

let test_error_classification () =
  let w = Wire.error_to_wire (Seed_error.Locked { item = "X"; holder = "a" }) in
  Alcotest.(check bool) "locked retryable" true (w.Wire.retryable && w.Wire.code = Wire.Locked);
  let w = Wire.error_to_wire (Seed_error.Unknown_object "X") in
  Alcotest.(check bool) "unknown name" true
    (w.Wire.code = Wire.Unknown_name && not w.Wire.retryable);
  let w = Wire.error_to_wire (Seed_error.Corrupt "bits") in
  Alcotest.(check bool) "corrupt is a server error" true
    (w.Wire.code = Wire.Server_error && not w.Wire.retryable)

(* --- the transport-agnostic server core ------------------------------- *)

let test_ttl = 10.0

(* [on_sleep] runs after each backoff sleep of a blocking checkout,
   with the engine mutex released: other clients act there. *)
let make_core ?(config = { NS.max_sessions = 64; session_ttl = test_ttl })
    ?(on_sleep = ref ignore) () =
  let clock = ref 0.0 in
  let srv = Server.create (fig3_schema ()) in
  let db = Server.database srv in
  ignore (ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()));
  ignore (ok (DB.create_object db ~cls:"Action" ~name:"Handler" ()));
  let core =
    NS.create ~config
      ~now:(fun () -> !clock)
      ~sleep:(fun d ->
        clock := !clock +. d;
        !on_sleep ())
      srv
  in
  (core, srv, clock)

(* one request through the core, decoding the reply *)
let step core conn ~req_id body =
  match NS.on_frame core conn (Frame.encode (Wire.encode_request { Wire.req_id; body })) with
  | NS.Reply f | NS.Reply_close f -> (
    match Frame.decode f with
    | Ok p -> (
      match Wire.decode_response p with
      | Ok r -> r
      | Error e -> Alcotest.failf "response decode: %s" (Seed_error.to_string e))
    | Error e -> Alcotest.failf "frame decode: %s" (Seed_error.to_string e))
  | NS.Close -> Alcotest.fail "unexpected close"

let hello core conn ?resume ~client () =
  match
    (step core conn ~req_id:1L
       (Wire.Hello { protocol = Frame.version; client; resume }))
      .Wire.rbody
  with
  | Wire.Welcome { session; token; resumed; _ } -> (session, token, resumed)
  | r -> Alcotest.failf "expected welcome, got %s" (match r with
      | Wire.Err w -> w.Wire.message
      | Wire.Busy _ -> "busy"
      | Wire.Draining -> "draining"
      | _ -> "other")

let expect_done what (r : Wire.response) =
  match r.Wire.rbody with
  | Wire.Done -> ()
  | Wire.Err w -> Alcotest.failf "%s: %s" what w.Wire.message
  | _ -> Alcotest.failf "%s: unexpected response" what

let test_session_lifecycle () =
  let core, srv, _ = make_core () in
  let conn = NS.open_conn core in
  let sid, _, resumed = hello core conn ~client:"alice" () in
  Alcotest.(check bool) "fresh" false resumed;
  Alcotest.(check bool) "positive sid" true (Int64.compare sid 0L > 0);
  expect_done "checkout"
    (step core conn ~req_id:2L
       (Wire.Checkout { names = [ "Alarms" ]; wait_timeout = None }));
  expect_done "checkin"
    (step core conn ~req_id:3L
       (Wire.Checkin
          [ Protocol.Reclassify_obj { name = "Alarms"; to_ = "InputData" } ]));
  Alcotest.(check int) "applied" 1 (Server.checkin_count srv);
  (* retrieval through a snapshot *)
  (match (step core conn ~req_id:4L (Wire.Find "Alarms")).Wire.rbody with
  | Wire.Found (Some cls) ->
    Alcotest.(check bool) "reclassified" true
      (String.ends_with ~suffix:"InputData" cls)
  | _ -> Alcotest.fail "find failed");
  (match (step core conn ~req_id:5L (Wire.Select_isa "Data")).Wire.rbody with
  | Wire.Names names -> Alcotest.(check bool) "alarms listed" true (Array.mem "Alarms" names)
  | _ -> Alcotest.fail "select failed");
  (* bye ends the session *)
  (match
     NS.on_frame core conn
       (Frame.encode (Wire.encode_request { Wire.req_id = 6L; body = Wire.Bye }))
   with
  | NS.Reply_close _ -> ()
  | _ -> Alcotest.fail "bye should close");
  let st = NS.stats core in
  Alcotest.(check int) "no sessions left" 0 st.Wire.sv_sessions

(* Served [Select_isa]/[Search] replies carry exactly the names of
   [Query.select] on a snapshot, in its order. The store holds the cases
   retrieval must get right: a pattern whose sub-object matches (patterns
   are invisible), an object inheriting it (inherited sub-objects are not
   searched), a deleted keyword (matches nothing), a re-classified object
   (leaves its old class extent for the new one), an object with two
   matching keywords (listed once), and a 2-byte needle (below trigram
   length, so the scan answers). Then the order's ties: two unnamed
   owners (equal, absent names: by id, first) and two owners bound to
   one name (a state only the item table can hold: by id). *)
let test_served_reads_match_query () =
  let core, srv, _ = make_core () in
  let db = Server.database srv in
  let obj ?pattern cls name = ok (DB.create_object db ~cls ~name ?pattern ()) in
  let sub parent role s =
    ok (DB.create_sub_object db ~parent ~role ~value:(Seed_schema.Value.String s) ())
  in
  let template = obj ~pattern:true "Data" "Template" in
  ignore (sub template "Keywords" "alarm");
  ok (DB.inherit_pattern db ~pattern:template ~inheritor:(obj "Data" "Heir"));
  let gone = obj "OutputData" "Gone" in
  ok (DB.delete db (sub gone "Keywords" "alarm"));
  let kept = obj "OutputData" "Kept" in
  ignore (sub kept "Keywords" "alarm");
  ignore (sub kept "Description" "zz top");
  let moved = obj "InputData" "Moved" in
  ignore (sub moved "Description" "an alarm raised");
  ok (DB.reclassify db moved ~to_:"OutputData");
  let twice = obj "Data" "Twice" in
  ignore (sub twice "Keywords" "alarm bell");
  ignore (sub twice "Keywords" "alarm clock");
  let conn = NS.open_conn core in
  ignore (hello core conn ~client:"reader" ());
  let v = ref (Server.snapshot srv) in
  let req = ref 1L in
  let check what body p want =
    let v = !v in
    req := Int64.succ !req;
    let served =
      match (step core conn ~req_id:!req body).Wire.rbody with
      | Wire.Names names -> Array.to_list names
      | _ -> Alcotest.failf "%s: expected names" what
    in
    let selected = List.filter_map (View.full_name v) (Query.select v p) in
    Alcotest.(check (list string)) (what ^ " = Query.select") selected served;
    Alcotest.(check (list string)) what want served
  in
  let isa cls = (Wire.Select_isa cls, Query.is_a cls) in
  let search path needles =
    (Wire.Search { path; needles }, Query.matches path needles)
  in
  List.iter
    (fun (what, (body, p), want) -> check what body p want)
    [
      ("old class", isa "InputData", []);
      ("new class", isa "OutputData", [ "Gone"; "Kept"; "Moved" ]);
      ("superclass", isa "Data", [ "Alarms"; "Gone"; "Heir"; "Kept"; "Moved"; "Twice" ]);
      ("any path", search "" [ "alarm" ], [ "Kept"; "Moved"; "Twice" ]);
      ("keywords", search "Thing.Keywords" [ "alarm" ], [ "Kept"; "Twice" ]);
      ("two keywords of one owner", search "Thing.Keywords" [ "alarm c" ], [ "Twice" ]);
      ("conjunctive", search "" [ "alarm"; "raised" ], [ "Moved" ]);
      ("short needle", search "" [ "zz" ], [ "Kept" ]);
      ("short needle, scanned past the pattern and the deleted keyword",
        search "" [ "al" ], [ "Kept"; "Moved"; "Twice" ]);
    ];
  (match Query.explain !v (Query.matches "" [ "al" ]) with
  | Query.Scan _ -> ()
  | Query.Indexed _ -> Alcotest.fail "a 2-byte needle must take the scan");
  let raw = DB.raw db in
  let raw_obj name =
    let id =
      ok
        (Seed_core.Db_state.atomically raw (fun () ->
             let id = Seed_core.Db_state.fresh_id raw in
             Seed_core.Db_state.add_item raw
               (Seed_core.Item.make id Seed_core.Item.Independent
                  (Seed_core.Item.Obj
                     {
                       name;
                       cls = "Data";
                       value = None;
                       pattern = false;
                       inherits = [];
                       deleted = false;
                     }));
             Ok id))
    in
    ignore (sub id "Keywords" "alarm");
    id
  in
  let unnamed1 = raw_obj None in
  let unnamed2 = raw_obj None in
  let kept_too = raw_obj (Some "Kept") in
  v := Server.snapshot srv;
  List.iter
    (fun (what, (body, p), want) -> check what body p want)
    [
      ("ties, by index", search "Thing.Keywords" [ "alarm" ], [ "Kept"; "Kept"; "Twice" ]);
      ("ties, by scan", search "" [ "al" ], [ "Kept"; "Kept"; "Moved"; "Twice" ]);
    ];
  List.iter
    (fun p ->
      Alcotest.(check (list int))
        "unnamed first, then by name, ties by id"
        (List.map Ident.to_int [ unnamed1; unnamed2; kept; kept_too; twice ])
        (List.map (fun (it : Seed_core.Item.t) -> Ident.to_int it.Seed_core.Item.id)
           (Query.select !v p)))
    Query.
      [
        matches "Thing.Keywords" [ "alarm" ];
        is_a "Data" &&& matches "Thing.Keywords" [ "alarm" ];
        matches "Thing.Keywords" [ "alarm" ] ||| name_is "Twice";
      ]

(* A served [Search] runs on a frozen snapshot, yet its text-index hit
   shows in the database's stats. *)
let test_served_search_counts_text_hits () =
  let core, srv, _ = make_core () in
  let db = Server.database srv in
  let doc = ok (DB.create_object db ~cls:"Data" ~name:"Doc" ()) in
  ignore
    (ok
       (DB.create_sub_object db ~parent:doc ~role:"Description"
          ~value:(Seed_schema.Value.String "alarm raised") ()));
  let conn = NS.open_conn core in
  ignore (hello core conn ~client:"reader" ());
  let before = (DB.stats db).DB.st_text_hits in
  (match
     (step core conn ~req_id:2L (Wire.Search { path = ""; needles = [ "alarm" ] }))
       .Wire.rbody
   with
  | Wire.Names names -> Alcotest.(check (array string)) "found" [| "Doc" |] names
  | _ -> Alcotest.fail "search failed");
  Alcotest.(check bool)
    "served search counted" true
    ((DB.stats db).DB.st_text_hits > before)

let test_request_before_hello_refused () =
  let core, _, _ = make_core () in
  let conn = NS.open_conn core in
  match NS.on_frame core conn (Frame.encode (Wire.encode_request { Wire.req_id = 1L; body = Wire.Ping })) with
  | NS.Reply_close f -> (
    match Wire.decode_response (ok (Frame.decode f)) with
    | Ok { Wire.rbody = Wire.Err w; _ } ->
      Alcotest.(check bool) "bad request" true (w.Wire.code = Wire.Bad_request)
    | _ -> Alcotest.fail "expected an error reply")
  | _ -> Alcotest.fail "expected reply+close"

let test_protocol_mismatch_refused () =
  let core, _, _ = make_core () in
  List.iter
    (fun protocol ->
      let conn = NS.open_conn core in
      match
        (step core conn ~req_id:1L
           (Wire.Hello { protocol; client = "alice"; resume = None }))
          .Wire.rbody
      with
      | Wire.Err w ->
        Alcotest.(check bool) "unsupported" true
          (w.Wire.code = Wire.Unsupported_protocol)
      | _ -> Alcotest.failf "protocol %d: expected refusal" protocol)
    [ 99; Frame.version - 1 ]

let test_corrupt_frame_closes_connection () =
  let core, _, _ = make_core () in
  let conn = NS.open_conn core in
  let f = Bytes.of_string (Frame.encode (Wire.encode_request { Wire.req_id = 1L; body = Wire.Ping })) in
  Bytes.set f (Frame.header_size) (Char.chr (Char.code (Bytes.get f Frame.header_size) lxor 1));
  (match NS.on_frame core conn (Bytes.to_string f) with
  | NS.Close -> ()
  | _ -> Alcotest.fail "corruption must close the connection");
  (* garbage that frames correctly but does not parse as a request is
     answered then closed *)
  let conn = NS.open_conn core in
  match NS.on_frame core conn (Frame.encode "\xF0garbage") with
  | NS.Reply_close _ -> ()
  | _ -> Alcotest.fail "unparseable request must answer then close"

(* Frames read off a real socket by [Transport.read_frame] and handed to
   [Net_server.on_buffer] in place: good frames are answered (a large one
   between two small ones on one reader), and every corruption
   [corruption detected] covers is still refused — by the reader (bad
   magic, an oversize length, a frame or header cut short) or by the
   in-place check (a flipped payload bit closes the connection). An idle
   read is a clean timeout, twice. *)
let test_socket_frames_decoded_in_place () =
  let core, _, _ = make_core () in
  let request req_id body = Frame.encode (Wire.encode_request { Wire.req_id; body }) in
  let hello = request 1L (Wire.Hello { protocol = Frame.version; client = "sock"; resume = None }) in
  let with_socket ~bytes ~close_writer f =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    ignore (Unix.write_substring a bytes 0 (String.length bytes));
    if close_writer then Unix.close a;
    let rd = Transport.reader b in
    Fun.protect
      ~finally:(fun () ->
        if not close_writer then Unix.close a;
        Unix.close b)
      (fun () -> f rd)
  in
  let serve conn rd =
    match Transport.read_frame rd ~timeout:(Some 1.0) with
    | Ok len -> NS.on_buffer core conn (Transport.frame_buffer rd) ~len
    | Error e -> Alcotest.failf "read: %s" (Seed_error.to_string e)
  in
  let answered what = function
    | NS.Reply f -> (
      match Wire.decode_response (ok (Frame.decode f)) with
      | Ok { Wire.rbody = Wire.Err w; _ } -> Alcotest.failf "%s: %s" what w.Wire.message
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" what (Seed_error.to_string e))
    | NS.Reply_close _ | NS.Close -> Alcotest.failf "%s: not answered" what
  in
  let long = String.make 70_000 'x' in
  with_socket
    ~bytes:(hello ^ request 2L (Wire.Find long) ^ request 3L (Wire.Find "Alarms"))
    ~close_writer:false (fun rd ->
      let conn = NS.open_conn core in
      answered "hello" (serve conn rd);
      answered "large find" (serve conn rd);
      answered "small find after it" (serve conn rd);
      List.iter
        (fun what ->
          check_err what
            (function Seed_error.Io_transient _ -> true | _ -> false)
            (Transport.read_frame rd ~timeout:(Some 0.01)))
        [ "idle"; "idle again" ]);
  let flip i s =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
    Bytes.to_string b
  in
  with_socket ~bytes:(flip (Frame.header_size + 3) hello) ~close_writer:false (fun rd ->
      match serve (NS.open_conn core) rd with
      | NS.Close -> ()
      | _ -> Alcotest.fail "bit flip: the connection must close");
  let bad_magic = Bytes.of_string hello and oversize = Bytes.of_string hello in
  Bytes.set bad_magic 0 'X';
  Bytes.set oversize 7 '\xFF';
  Bytes.set oversize 8 '\x7F';
  List.iter
    (fun (what, bytes, is_refusal) ->
      with_socket ~bytes ~close_writer:true (fun rd ->
          check_err what is_refusal (Transport.read_frame rd ~timeout:(Some 1.0))))
    [
      ("bad magic", Bytes.to_string bad_magic, function Seed_error.Corrupt _ -> true | _ -> false);
      ("oversize length", Bytes.to_string oversize, function Seed_error.Corrupt _ -> true | _ -> false);
      ( "truncated",
        String.sub hello 0 (String.length hello - 3),
        function Seed_error.Io_error _ -> true | _ -> false );
      ("short header", String.sub hello 0 5, function Seed_error.Io_error _ -> true | _ -> false);
    ]

let test_replay_returns_cache_without_reapplying () =
  let core, srv, _ = make_core () in
  let conn = NS.open_conn core in
  let _ = hello core conn ~client:"alice" () in
  expect_done "checkout"
    (step core conn ~req_id:2L
       (Wire.Checkout { names = [ "Alarms" ]; wait_timeout = None }));
  let checkin =
    Wire.Checkin [ Protocol.Reclassify_obj { name = "Alarms"; to_ = "InputData" } ]
  in
  expect_done "checkin" (step core conn ~req_id:3L checkin);
  Alcotest.(check int) "applied once" 1 (Server.checkin_count srv);
  (* the response was lost: the client replays the same request id —
     the server answers from the cache without touching the engine *)
  let r = step core conn ~req_id:3L checkin in
  expect_done "replayed answer" r;
  Alcotest.(check int) "NOT applied twice" 1 (Server.checkin_count srv);
  (* a lower id is a protocol violation, answered and closed *)
  (match (step core conn ~req_id:2L Wire.Ping).Wire.rbody with
  | Wire.Err w -> Alcotest.(check bool) "stale id" true (w.Wire.code = Wire.Bad_request)
  | _ -> Alcotest.fail "expected stale-id error")

let test_resume_within_lease () =
  let core, srv, _ = make_core () in
  let conn = NS.open_conn core in
  let sid, token, _ = hello core conn ~client:"alice" () in
  expect_done "checkout"
    (step core conn ~req_id:2L
       (Wire.Checkout { names = [ "Alarms" ]; wait_timeout = None }));
  (* the connection dies; the session and its locks survive *)
  NS.close_conn core conn;
  Alcotest.(check (list string)) "locks survive" [ "Alarms" ]
    (Server.locked_by srv ~client:"alice");
  let conn2 = NS.open_conn core in
  let sid2, _, resumed =
    hello core conn2 ~client:"alice" ~resume:(sid, token) ()
  in
  Alcotest.(check bool) "resumed" true resumed;
  Alcotest.(check bool) "same session" true (Int64.equal sid sid2);
  (* and the locks still cover a check-in *)
  expect_done "checkin after resume"
    (step core conn2 ~req_id:3L
       (Wire.Checkin
          [ Protocol.Reclassify_obj { name = "Alarms"; to_ = "InputData" } ]))

let test_resume_with_wrong_token_refused () =
  let core, _, _ = make_core () in
  let conn = NS.open_conn core in
  let sid, token, _ = hello core conn ~client:"alice" () in
  NS.close_conn core conn;
  let conn2 = NS.open_conn core in
  match
    (step core conn2 ~req_id:2L
       (Wire.Hello
          {
            protocol = Frame.version;
            client = "alice";
            resume = Some (sid, Int64.lognot token);
          }))
      .Wire.rbody
  with
  | Wire.Err w ->
    Alcotest.(check bool) "expired code" true (w.Wire.code = Wire.Session_expired)
  | _ -> Alcotest.fail "wrong token must not resume"

let test_lease_expiry_reaps_session_and_locks () =
  let core, srv, clock = make_core () in
  let conn = NS.open_conn core in
  let sid, token, _ = hello core conn ~client:"alice" () in
  expect_done "checkout"
    (step core conn ~req_id:2L
       (Wire.Checkout { names = [ "Alarms"; "Handler" ]; wait_timeout = None }));
  NS.close_conn core conn;
  clock := test_ttl +. 1.0;
  let reaped = NS.reap core in
  Alcotest.(check (list (pair string (list string)))) "session reaped"
    [ ("alice", [ "Alarms"; "Handler" ]) ]
    reaped;
  Alcotest.(check (list string)) "no lease outlives the ttl" []
    (Server.locked_by srv ~client:"alice");
  (* resume after expiry is refused — replay safety is gone *)
  let conn2 = NS.open_conn core in
  (match
     (step core conn2 ~req_id:3L
        (Wire.Hello
           { protocol = Frame.version; client = "alice"; resume = Some (sid, token) }))
       .Wire.rbody
   with
  | Wire.Err w ->
    Alcotest.(check bool) "session expired" true (w.Wire.code = Wire.Session_expired)
  | _ -> Alcotest.fail "expired resume must be refused");
  (* a fresh hello under the same client name works: the old session
     is gone, nothing is leaked *)
  let conn3 = NS.open_conn core in
  let _, _, resumed = hello core conn3 ~client:"alice" () in
  Alcotest.(check bool) "fresh session" false resumed

let test_requests_renew_the_lease () =
  let core, _, clock = make_core () in
  let conn = NS.open_conn core in
  let _ = hello core conn ~client:"alice" () in
  (* heartbeat every ttl-1 seconds: the session must survive well past
     the original window *)
  for i = 1 to 5 do
    clock := !clock +. (test_ttl -. 1.0);
    match (step core conn ~req_id:(Int64.of_int (i + 1)) Wire.Ping).Wire.rbody with
    | Wire.Pong -> ()
    | Wire.Err w -> Alcotest.failf "heartbeat %d: %s" i w.Wire.message
    | _ -> Alcotest.fail "expected pong"
  done;
  let st = NS.stats core in
  Alcotest.(check int) "still one live session" 1 st.Wire.sv_sessions;
  Alcotest.(check int) "nothing reaped" 0 st.Wire.sv_reaped_sessions

let checkout ?wait_timeout names = Wire.Checkout { names; wait_timeout }

let expect_err what code (r : Wire.response) =
  match r.Wire.rbody with
  | Wire.Err w when w.Wire.code = code -> ()
  | _ -> Alcotest.failf "%s: expected an error of another kind" what

(* Heartbeats carry the session, and with it its locks, past the
   original expiry; the locks lapse exactly one TTL after the last. *)
let test_heartbeat_carries_locks () =
  let core, srv, clock = make_core () in
  let conn = NS.open_conn core in
  ignore (hello core conn ~client:"alice" ());
  expect_done "checkout" (step core conn ~req_id:2L (checkout [ "Alarms" ]));
  clock := 8.0;
  ignore (step core conn ~req_id:3L Wire.Ping);
  clock := 16.0;
  ignore (step core conn ~req_id:4L Wire.Ping);
  clock := 25.999;
  Alcotest.(check (list (pair string (list string)))) "alive" [] (NS.reap core);
  Alcotest.(check (list string)) "still held" [ "Alarms" ]
    (Server.locked_by srv ~client:"alice");
  clock := 26.0;
  Alcotest.(check (list (pair string (list string)))) "lapsed with its session"
    [ ("alice", [ "Alarms" ]) ]
    (NS.reap core)

(* The session's lease is its locks' lease, and the boundary is
   inclusive: until then another client is refused; at exactly the
   expiry its next request reaps the session first and takes the
   objects, with nobody calling [reap]. *)
let test_locks_change_hands_at_expiry () =
  let core, _, clock = make_core () in
  let alice = NS.open_conn core and bob = NS.open_conn core in
  ignore (hello core alice ~client:"alice" ());
  expect_done "alice takes"
    (step core alice ~req_id:2L (checkout [ "Alarms"; "Handler" ]));
  clock := 5.0;
  ignore (hello core bob ~client:"bob" ());
  clock := test_ttl -. 0.001;
  expect_err "bob refused while alice's lease lives" Wire.Locked
    (step core bob ~req_id:2L (checkout [ "Alarms" ]));
  clock := test_ttl;
  expect_done "bob takes over at the boundary"
    (step core bob ~req_id:3L (checkout [ "Alarms"; "Handler" ]));
  Alcotest.(check int) "alice reaped" 1 (NS.stats core).Wire.sv_reaped_sessions

(* A holder whose lease lapsed blocks nobody: its late check-in is
   refused, and the other client takes the object and edits it. *)
let test_lease_expiry_unblocks () =
  let core, srv, clock = make_core () in
  let alice = NS.open_conn core and bob = NS.open_conn core in
  ignore (hello core alice ~client:"alice" ());
  expect_done "alice takes" (step core alice ~req_id:2L (checkout [ "Alarms" ]));
  clock := 5.0;
  ignore (hello core bob ~client:"bob" ());
  expect_err "bob blocked while live" Wire.Locked
    (step core bob ~req_id:2L (checkout [ "Alarms" ]));
  clock := test_ttl +. 1.0;
  expect_err "stale checkin refused" Wire.Session_expired
    (step core alice ~req_id:3L
       (Wire.Checkin
          [ Protocol.Reclassify_obj { name = "Alarms"; to_ = "InputData" } ]));
  Alcotest.(check (list string)) "lease lapsed" []
    (Server.locked_by srv ~client:"alice");
  expect_done "bob takes over"
    (step core bob ~req_id:3L (checkout [ "Alarms" ]));
  expect_done "bob's edit lands"
    (step core bob ~req_id:4L
       (Wire.Checkin
          [ Protocol.Reclassify_obj { name = "Alarms"; to_ = "OutputData" } ]));
  Alcotest.(check int) "bob's applied" 1 (Server.checkin_count srv);
  let db = Server.database srv in
  Alcotest.(check (option string)) "bob's class" (Some "OutputData")
    (DB.class_of db (Option.get (DB.find_object db "Alarms")))

(* A check-in arriving exactly at its session's expiry is refused; a
   hair inside the lease the same check-in applies. *)
let test_checkin_at_exact_expiry () =
  let core, srv, clock = make_core () in
  let db = Server.database srv in
  let batch =
    Wire.Checkin [ Protocol.Reclassify_obj { name = "Alarms"; to_ = "InputData" } ]
  in
  let class_of_alarms () = DB.class_of db (Option.get (DB.find_object db "Alarms")) in
  let conn = NS.open_conn core in
  ignore (hello core conn ~client:"alice" ());
  expect_done "checkout" (step core conn ~req_id:2L (checkout [ "Alarms" ]));
  clock := test_ttl;
  expect_err "refused at the boundary" Wire.Session_expired
    (step core conn ~req_id:3L batch);
  Alcotest.(check int) "nothing counted" 0 (Server.checkin_count srv);
  Alcotest.(check (option string)) "nothing applied" (Some "Data")
    (class_of_alarms ());
  Alcotest.(check (list string)) "locks freed" []
    (Server.locked_by srv ~client:"alice");
  let conn = NS.open_conn core in
  ignore (hello core conn ~client:"alice" ());
  expect_done "checkout again" (step core conn ~req_id:2L (checkout [ "Alarms" ]));
  clock := (2.0 *. test_ttl) -. 0.001;
  expect_done "applies just inside the lease" (step core conn ~req_id:3L batch);
  Alcotest.(check (option string)) "target moved" (Some "InputData")
    (class_of_alarms ())

(* A batch mixing a lock-free op (a fresh creation) with an op on an
   expired session's lock is refused whole: the fresh object must not
   exist afterwards. *)
let test_expiry_never_partial () =
  let core, srv, clock = make_core () in
  let db = Server.database srv in
  let conn = NS.open_conn core in
  ignore (hello core conn ~client:"alice" ());
  expect_done "checkout" (step core conn ~req_id:2L (checkout [ "Alarms" ]));
  clock := test_ttl;
  expect_err "whole batch refused" Wire.Session_expired
    (step core conn ~req_id:3L
       (Wire.Checkin
          [
            Protocol.Create_object { cls = "Data"; name = "Fresh"; pattern = false };
            Protocol.Reclassify_obj { name = "Alarms"; to_ = "InputData" };
          ]));
  Alcotest.(check int) "nothing counted" 0 (Server.checkin_count srv);
  Alcotest.(check bool) "no partial batch" true (DB.find_object db "Fresh" = None);
  Alcotest.(check (option string)) "target untouched" (Some "Data")
    (DB.class_of db (Option.get (DB.find_object db "Alarms")))

(* Bob holds Alarms; at t=9, a second before her lease ends, alice asks
   for it with a 20 s wait, and bob releases it past t=10.5, during her
   wait. Her session must survive the wait, whatever bob's dispatches
   reap meanwhile. *)
let wait_out_the_lease () =
  let on_sleep = ref ignore in
  let core, srv, clock = make_core ~on_sleep () in
  let alice = NS.open_conn core and bob = NS.open_conn core in
  ignore (hello core alice ~client:"alice" ());
  clock := 5.0;
  ignore (hello core bob ~client:"bob" ());
  expect_done "bob takes" (step core bob ~req_id:2L (checkout [ "Alarms" ]));
  (on_sleep :=
     fun () ->
       if !clock >= 10.5 then begin
         on_sleep := ignore;
         expect_done "bob releases" (step core bob ~req_id:3L Wire.Release)
       end);
  clock := 9.0;
  expect_done "alice waits it out"
    (step core alice ~req_id:2L (checkout ~wait_timeout:20.0 [ "Alarms" ]));
  (core, srv, clock, alice)

let test_waiting_checkout_keeps_its_session () =
  let core, srv, clock, alice = wait_out_the_lease () in
  Alcotest.(check int) "nobody reaped" 0 (NS.stats core).Wire.sv_reaped_sessions;
  (* the lease restarted when the wait ended *)
  clock := !clock +. test_ttl -. 0.001;
  expect_done "check-in on the same session"
    (step core alice ~req_id:3L
       (Wire.Checkin
          [ Protocol.Reclassify_obj { name = "Alarms"; to_ = "InputData" } ]));
  Alcotest.(check int) "applied" 1 (Server.checkin_count srv);
  (* and the lock the wait took lapses with her session *)
  let core, srv, clock, _ = wait_out_the_lease () in
  Alcotest.(check (list string)) "alice holds" [ "Alarms" ]
    (Server.locked_by srv ~client:"alice");
  clock := !clock +. test_ttl;
  Alcotest.(check (option (list string))) "freed with the session"
    (Some [ "Alarms" ])
    (List.assoc_opt "alice" (NS.reap core))

(* Alice ends her session from a second connection while her first one
   waits: the lock the wait then takes must not outlive the session, and
   her name cannot start a fresh session (which would inherit that lock)
   until the wait is over. *)
let test_bye_during_wait_frees_the_take () =
  let on_sleep = ref ignore in
  let core, srv, _ = make_core ~on_sleep () in
  let alice = NS.open_conn core and bob = NS.open_conn core in
  ignore (hello core bob ~client:"bob" ());
  expect_done "bob takes" (step core bob ~req_id:2L (checkout [ "Alarms" ]));
  let sid, token, _ = hello core alice ~client:"alice" () in
  let fresh = NS.open_conn core in
  let fresh_hello () =
    step core fresh ~req_id:1L
      (Wire.Hello { protocol = Frame.version; client = "alice"; resume = None })
  in
  (on_sleep :=
     fun () ->
       on_sleep := ignore;
       let again = NS.open_conn core in
       ignore (hello core again ~client:"alice" ~resume:(sid, token) ());
       expect_done "bye" (step core again ~req_id:3L Wire.Bye);
       expect_err "re-hello while the wait runs" Wire.Already_connected
         (fresh_hello ());
       expect_done "bob releases" (step core bob ~req_id:3L Wire.Release));
  expect_err "the wait ends with its session" Wire.Session_expired
    (step core alice ~req_id:2L (checkout ~wait_timeout:5.0 [ "Alarms" ]));
  Alcotest.(check (list string)) "nothing left locked" []
    (Server.locked_by srv ~client:"alice");
  (match (fresh_hello ()).Wire.rbody with
  | Wire.Welcome { resumed; _ } ->
    Alcotest.(check bool) "a fresh session" false resumed
  | _ -> Alcotest.fail "the name is free once the wait is over");
  Alcotest.(check (list string)) "the fresh session holds nothing" []
    (Server.locked_by srv ~client:"alice")

(* Alice holds Handler and, at t=1, asks for Alarms (held by bob, who
   never lets go) with a wait far beyond the ttl — or a NaN one — and
   then dies. The wait holds her session but lasts one ttl at most, so
   Handler is freed one ttl after it ends. *)
let test_dead_waiter_frees_its_locks () =
  List.iter
    (fun wait ->
      let core, srv, clock = make_core () in
      let alice = NS.open_conn core and bob = NS.open_conn core in
      ignore (hello core alice ~client:"alice" ());
      ignore (hello core bob ~client:"bob" ());
      expect_done "alice takes"
        (step core alice ~req_id:2L (checkout [ "Handler" ]));
      expect_done "bob takes" (step core bob ~req_id:2L (checkout [ "Alarms" ]));
      clock := 1.0;
      expect_err "the wait times out" Wire.Locked
        (step core alice ~req_id:3L (checkout ~wait_timeout:wait [ "Alarms" ]));
      let ended = !clock in
      Alcotest.(check bool) "capped at one ttl" true
        (ended >= 1.0 +. test_ttl && ended < 1.0 +. (2.0 *. test_ttl));
      let reap_alice () = List.assoc_opt "alice" (NS.reap core) in
      clock := ended +. test_ttl -. 0.001;
      Alcotest.(check (option (list string))) "still leased" None
        (reap_alice ());
      clock := ended +. test_ttl;
      Alcotest.(check (option (list string))) "freed at the bound"
        (Some [ "Handler" ]) (reap_alice ());
      Alcotest.(check (list string)) "Handler free" []
        (Server.locked_by srv ~client:"alice"))
    [ 3600.0; Float.nan ]

let test_max_sessions_sheds_load () =
  let config = { NS.max_sessions = 2; session_ttl = test_ttl } in
  let core, _, clock = make_core ~config () in
  let c1 = NS.open_conn core in
  let _ = hello core c1 ~client:"a" () in
  let c2 = NS.open_conn core in
  let _ = hello core c2 ~client:"b" () in
  let c3 = NS.open_conn core in
  (match
     (step core c3 ~req_id:1L
        (Wire.Hello { protocol = Frame.version; client = "c"; resume = None }))
       .Wire.rbody
   with
  | Wire.Busy { retry_after } ->
    Alcotest.(check bool) "retry hint" true (retry_after > 0.0)
  | _ -> Alcotest.fail "third session must be shed");
  Alcotest.(check int) "shed counted" 1 (NS.stats core).Wire.sv_busy_rejects;
  (* a session expiring frees a slot *)
  clock := test_ttl +. 1.0;
  let c4 = NS.open_conn core in
  let _ = hello core c4 ~client:"c" () in
  ()

let test_duplicate_client_name_refused () =
  let core, _, _ = make_core () in
  let c1 = NS.open_conn core in
  let _ = hello core c1 ~client:"alice" () in
  let c2 = NS.open_conn core in
  match
    (step core c2 ~req_id:1L
       (Wire.Hello { protocol = Frame.version; client = "alice"; resume = None }))
      .Wire.rbody
  with
  | Wire.Err w ->
    Alcotest.(check bool) "already connected (retryable)" true
      (w.Wire.code = Wire.Already_connected && w.Wire.retryable)
  | _ -> Alcotest.fail "duplicate client name must be refused"

let test_drain_answers_retryable () =
  let core, _, _ = make_core () in
  let conn = NS.open_conn core in
  let _ = hello core conn ~client:"alice" () in
  (* a shutdown drains the core: whatever still reaches it, through any
     connection, is answered [Draining] *)
  (match NS.serve ~port:0 core with
  | Ok listener -> NS.shutdown ~grace:0.0 listener
  | Error e -> Alcotest.failf "serve: %s" (Seed_error.to_string e));
  (match (step core conn ~req_id:2L Wire.Ping).Wire.rbody with
  | Wire.Draining -> ()
  | _ -> Alcotest.fail "established sessions must see Draining");
  let conn2 = NS.open_conn core in
  match
    (step core conn2 ~req_id:1L
       (Wire.Hello { protocol = Frame.version; client = "late"; resume = None }))
      .Wire.rbody
  with
  | Wire.Draining -> ()
  | _ -> Alcotest.fail "new sessions must see Draining"

let test_engine_exception_becomes_error_response () =
  let core, _, _ = make_core () in
  let conn = NS.open_conn core in
  let _ = hello core conn ~client:"alice" () in
  (* a wait with a negative timeout exercises unusual engine paths; what
     matters is the contract: whatever happens, the server answers
     instead of dying *)
  match
    (step core conn ~req_id:2L
       (Wire.Checkout { names = [ "Alarms" ]; wait_timeout = Some (-1.0) }))
      .Wire.rbody
  with
  | Wire.Done | Wire.Err _ -> ()
  | _ -> Alcotest.fail "expected done or an error"

(* --- faulty transport ------------------------------------------------- *)

let test_faulty_transport_deterministic () =
  let config = { FT.quiet with FT.seed = 7; drop = 0.3; dup = 0.2; corrupt = 0.1 } in
  let run () =
    let t = FT.create config in
    List.concat_map (fun f -> FT.apply t f)
      [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]
  in
  Alcotest.(check (list string)) "same seed, same schedule" (run ()) (run ());
  let t1 = FT.create { config with FT.seed = 8 } in
  let t2 = FT.create { config with FT.seed = 9 } in
  let out1 = List.concat_map (FT.apply t1) [ "a"; "b"; "c"; "d"; "e"; "f" ] in
  let out2 = List.concat_map (FT.apply t2) [ "a"; "b"; "c"; "d"; "e"; "f" ] in
  Alcotest.(check bool) "different seeds diverge eventually" true
    (out1 <> out2 || FT.injected t1 <> FT.injected t2)

let test_faulty_transport_quiet_is_transparent () =
  let t = FT.create FT.quiet in
  List.iter
    (fun f -> Alcotest.(check (list string)) "delivered verbatim" [ f ] (FT.apply t f))
    [ "x"; "y"; "z" ];
  Alcotest.(check int) "no faults" 0 (FT.injected t)

let test_faulty_transport_delay_and_cut () =
  let t = FT.create { FT.quiet with FT.seed = 1; delay = 1.0 } in
  Alcotest.(check (list string)) "held" [] (FT.apply t "first");
  let t2 = FT.create { FT.quiet with FT.seed = 1; delay = 1.0 } in
  Alcotest.(check (list string)) "held too" [] (FT.apply t2 "first");
  FT.cut t2;
  Alcotest.(check (list string)) "cut loses the backlog" [] (FT.flush t2);
  Alcotest.(check bool) "flush delivers the backlog" true
    (List.mem "first" (FT.flush t))

(* --- the client library over a synthetic wire -------------------------- *)

(* A client wired straight into a server core. [drop_replies] models a
   connection that dies after the server executed but before the client
   read the answer ([on_drop] fires at that moment, e.g. to advance the
   clock); each dial opens a fresh server-side connection, like a real
   reconnect. *)
let make_client_harness ?(ttl = test_ttl) () =
  let config = { NS.max_sessions = 64; session_ttl = ttl } in
  let core, srv, clock = make_core ~config () in
  let drop_replies = ref 0 in
  let on_drop = ref (fun () -> ()) in
  let dials = ref 0 in
  let dial () =
    incr dials;
    let conn = NS.open_conn core in
    let inbox = Queue.create () in
    let closed = ref false in
    Ok
      (Transport.of_functions
         ~send:(fun frame ->
           if !closed then Seed_error.fail (Seed_error.Io_error "closed")
           else
             match NS.on_frame core conn frame with
             | NS.Reply r | NS.Reply_close r ->
               if !drop_replies > 0 then begin
                 decr drop_replies;
                 !on_drop ()
               end
               else Queue.push r inbox;
               Ok ()
             | NS.Close ->
               closed := true;
               Seed_error.fail (Seed_error.Io_error "server closed"))
         ~recv:(fun ~timeout:_ ->
           if Queue.is_empty inbox then
             Seed_error.fail (Seed_error.Io_transient "empty")
           else Ok (Queue.pop inbox))
         ~close:(fun () -> closed := true))
  in
  let cl =
    NC.create ~client:"alice"
      ~now:(fun () -> !clock)
      ~sleep:(fun d -> clock := !clock +. d)
      ~dial ()
  in
  (cl, core, srv, clock, drop_replies, on_drop, dials)

let client_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" what NC.pp_error e

let test_client_basic_ops () =
  let cl, core, srv, _, _, _, _ = make_client_harness () in
  client_ok "ping" (NC.ping cl);
  client_ok "checkout" (NC.checkout cl [ "Alarms" ]);
  client_ok "checkin"
    (NC.checkin cl
       [ Protocol.Reclassify_obj { name = "Alarms"; to_ = "InputData" } ]);
  Alcotest.(check int) "applied" 1 (Server.checkin_count srv);
  (match client_ok "find" (NC.find cl "Alarms") with
  | Some _ -> ()
  | None -> Alcotest.fail "alarms must resolve");
  let names = client_ok "select" (NC.select_isa cl "Data") in
  Alcotest.(check bool) "alarms listed" true (List.mem "Alarms" names);
  let st = client_ok "stats" (NC.stats cl) in
  Alcotest.(check int) "one session" 1 st.Wire.sv_sessions;
  NC.close cl;
  Alcotest.(check int) "bye freed the session" 0 (NS.stats core).Wire.sv_sessions

let test_client_replays_lost_response_exactly_once () =
  let cl, _, srv, _, drop_replies, _, dials = make_client_harness () in
  client_ok "checkout" (NC.checkout cl [ "Alarms" ]);
  let before = !dials in
  (* the wire eats the check-in answer: the client must reconnect,
     resume, replay — and the engine must apply exactly once *)
  drop_replies := 1;
  client_ok "checkin survives a lost response"
    (NC.checkin cl
       [ Protocol.Reclassify_obj { name = "Alarms"; to_ = "InputData" } ]);
  Alcotest.(check int) "applied exactly once" 1 (Server.checkin_count srv);
  Alcotest.(check bool) "reconnected" true (!dials > before);
  (* the session survived the reconnect (resumed, not recreated) *)
  let st = client_ok "stats" (NC.stats cl) in
  Alcotest.(check int) "one session" 1 st.Wire.sv_sessions;
  Alcotest.(check int) "no session was reaped" 0 st.Wire.sv_reaped_sessions

let test_client_surfaces_expired_session () =
  let cl, _, srv, clock, drop_replies, on_drop, _ =
    make_client_harness ~ttl:5.0 ()
  in
  client_ok "checkout" (NC.checkout cl [ "Alarms" ]);
  (* the answer is lost AND the client stays away past the lease: the
     check-in's outcome is unknowable (here it did apply), so the client
     must surface the expiry rather than replay blind into a fresh
     session and risk a double apply *)
  drop_replies := 1;
  (on_drop := fun () -> clock := !clock +. 6.0);
  let before = Server.checkin_count srv in
  (match
     NC.checkin cl
       [ Protocol.Reclassify_obj { name = "Alarms"; to_ = "InputData" } ]
   with
  | Error (NC.Remote w) ->
    Alcotest.(check bool) "expired surfaces" true
      (w.Wire.code = Wire.Session_expired)
  | Ok () -> Alcotest.fail "must not report success with unknown outcome"
  | Error (NC.Transport e) ->
    Alcotest.failf "expected the remote expiry: %s" (Seed_error.to_string e));
  (* the engine applied it exactly once — never twice *)
  Alcotest.(check int) "no double apply" (before + 1) (Server.checkin_count srv)

let test_client_retries_busy () =
  let config = { NS.max_sessions = 1; session_ttl = 5.0 } in
  let core, _, clock = make_core ~config () in
  (* occupy the only slot with a session that dies at t=5 *)
  let c1 = NS.open_conn core in
  let _ = hello core c1 ~client:"squatter" () in
  NS.close_conn core c1;
  let dial () =
    let conn = NS.open_conn core in
    let inbox = Queue.create () in
    Ok
      (Transport.of_functions
         ~send:(fun frame ->
           (match NS.on_frame core conn frame with
           | NS.Reply r | NS.Reply_close r -> Queue.push r inbox
           | NS.Close -> ());
           Ok ())
         ~recv:(fun ~timeout:_ ->
           if Queue.is_empty inbox then
             Seed_error.fail (Seed_error.Io_transient "empty")
           else Ok (Queue.pop inbox))
         ~close:(fun () -> ()))
  in
  let cl =
    NC.create ~client:"patient"
      ~now:(fun () -> !clock)
      ~sleep:(fun d -> clock := !clock +. d)
      ~dial ()
  in
  (* Busy at first (admission full), then the squatter's lease runs out
     and the client's backoff retry gets the slot — no hang, no error *)
  client_ok "waits out the busy server" (NC.ping cl)

(* --- TCP loopback ------------------------------------------------------ *)

let with_tcp_server f =
  let srv = Server.create (fig3_schema ()) in
  let db = Server.database srv in
  ignore (ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()));
  ignore (ok (DB.create_object db ~cls:"Action" ~name:"Handler" ()));
  let core = NS.create srv in
  match NS.serve ~port:0 core with
  | Error e -> Alcotest.failf "serve: %s" (Seed_error.to_string e)
  | Ok listener ->
    Fun.protect
      ~finally:(fun () -> NS.shutdown ~grace:0.05 listener)
      (fun () -> f (NS.port listener) core srv)

let test_tcp_basic () =
  with_tcp_server (fun port _ srv ->
      let cl = NC.connect_tcp ~client:"tcp-basic" ~host:"127.0.0.1" ~port () in
      client_ok "ping" (NC.ping cl);
      client_ok "checkout" (NC.checkout cl [ "Alarms" ]);
      client_ok "checkin"
        (NC.checkin cl
           [ Protocol.Reclassify_obj { name = "Alarms"; to_ = "InputData" } ]);
      Alcotest.(check int) "applied" 1 (Server.checkin_count srv);
      NC.close cl)

let test_tcp_concurrent_clients () =
  with_tcp_server (fun port core srv ->
      let n = 8 in
      let failures = ref [] in
      let fm = Mutex.create () in
      let worker i () =
        let client = Printf.sprintf "worker-%d" i in
        let cl = NC.connect_tcp ~client ~host:"127.0.0.1" ~port () in
        let name = Printf.sprintf "Obj%d" i in
        let res =
          let ( >>= ) r f = match r with Ok v -> f v | Error e -> Error e in
          NC.ping cl
          >>= fun () ->
          NC.checkin cl
            [ Protocol.Create_object { cls = "InputData"; name; pattern = false } ]
          >>= fun () ->
          NC.checkout cl ~wait_timeout:5.0 [ name; "Handler" ]
          >>= fun () ->
          NC.checkin cl
            [
              Protocol.Create_rel
                { assoc = "Read"; endpoints = [ name; "Handler" ]; pattern = false };
            ]
          >>= fun () ->
          NC.find cl name
          >>= fun found ->
          if found = None then
            Error (NC.Remote { Wire.code = Wire.Server_error; message = name ^ " vanished"; retryable = false })
          else NC.select_isa cl "Data" >>= fun _ -> Ok ()
        in
        (match res with
        | Ok () -> ()
        | Error e ->
          Mutex.lock fm;
          failures := Format.asprintf "%s: %a" client NC.pp_error e :: !failures;
          Mutex.unlock fm);
        NC.close cl
      in
      let threads = List.init n (fun i -> Thread.create (worker i) ()) in
      List.iter Thread.join threads;
      (match !failures with
      | [] -> ()
      | fs -> Alcotest.failf "client failures: %s" (String.concat "; " fs));
      (* every client's object and relationship landed *)
      let db = Server.database srv in
      for i = 0 to n - 1 do
        let name = Printf.sprintf "Obj%d" i in
        match DB.find_object db name with
        | Some id ->
          Alcotest.(check int) (name ^ " linked") 1 (List.length (DB.relationships db id))
        | None -> Alcotest.failf "%s missing" name
      done;
      Alcotest.(check int) "2n check-ins" (2 * n) (Server.checkin_count srv);
      let st = NS.stats core in
      Alcotest.(check int) "sessions freed by bye" 0 st.Wire.sv_sessions)

let test_tcp_graceful_drain () =
  let srv = Server.create (fig3_schema ()) in
  let core = NS.create srv in
  match NS.serve ~port:0 core with
  | Error e -> Alcotest.failf "serve: %s" (Seed_error.to_string e)
  | Ok listener ->
    let port = NS.port listener in
    let cl = NC.connect_tcp ~client:"drainee" ~host:"127.0.0.1" ~port () in
    client_ok "ping before drain" (NC.ping cl);
    NS.shutdown ~grace:0.05 listener;
    (* the server is gone: the client's bounded retry must fail cleanly
       (no hang) with a transport error or a Draining-derived error *)
    let cfg =
      {
        NC.client = "drainee2";
        request_timeout = 2.0;
        retry_window = 0.4;
        retry_policy = Retry.default_policy;
      }
    in
    let cl2 = NC.connect_tcp ~config:cfg ~client:"drainee2" ~host:"127.0.0.1" ~port () in
    (match NC.ping cl2 with
    | Ok () -> Alcotest.fail "server should be down"
    | Error _ -> ());
    NC.close cl2;
    NC.close cl

let () =
  Alcotest.run "net"
    [
      ( "frame",
        [
          tc "roundtrip" test_frame_roundtrip;
          tc "corruption detected" test_frame_detects_corruption;
          tc "length bounded" test_frame_length_bounded;
        ] );
      ( "wire",
        [
          tc "request roundtrips" test_wire_request_roundtrips;
          tc "response roundtrips" test_wire_response_roundtrips;
          tc "one-buffer response frames" test_response_frame_bytes;
          tc "garbage rejected" test_wire_garbage_rejected;
          tc "error classification" test_error_classification;
        ] );
      ( "sessions",
        [
          tc "lifecycle" test_session_lifecycle;
          tc "served reads = Query.select" test_served_reads_match_query;
          tc "served search counts text hits" test_served_search_counts_text_hits;
          tc "request before hello" test_request_before_hello_refused;
          tc "protocol mismatch" test_protocol_mismatch_refused;
          tc "corrupt frame closes" test_corrupt_frame_closes_connection;
          tc "socket frames decoded in place" test_socket_frames_decoded_in_place;
          tc "replay answers from cache" test_replay_returns_cache_without_reapplying;
          tc "resume within lease" test_resume_within_lease;
          tc "wrong token refused" test_resume_with_wrong_token_refused;
          tc "expiry reaps session + locks" test_lease_expiry_reaps_session_and_locks;
          tc "requests renew the lease" test_requests_renew_the_lease;
          tc "heartbeat refresh" test_heartbeat_carries_locks;
          tc "checkin at exact expiry" test_checkin_at_exact_expiry;
          tc "expiry never partial" test_expiry_never_partial;
          tc "waiting checkout keeps its session"
            test_waiting_checkout_keeps_its_session;
          tc "bye during a wait frees the take" test_bye_during_wait_frees_the_take;
          tc "dead waiter frees its locks" test_dead_waiter_frees_its_locks;
          tc "max sessions sheds" test_max_sessions_sheds_load;
          tc "duplicate client refused" test_duplicate_client_name_refused;
          tc "drain is retryable" test_drain_answers_retryable;
          tc "engine exception answered" test_engine_exception_becomes_error_response;
        ] );
      ( "leases",
        [
          tc "expiry unblocks" test_lease_expiry_unblocks;
          tc "exact-expiry boundary" test_locks_change_hands_at_expiry;
        ] );
      ( "faulty-transport",
        [
          tc "deterministic" test_faulty_transport_deterministic;
          tc "quiet transparent" test_faulty_transport_quiet_is_transparent;
          tc "delay and cut" test_faulty_transport_delay_and_cut;
        ] );
      ( "client",
        [
          tc "basic ops" test_client_basic_ops;
          tc "replays lost response once" test_client_replays_lost_response_exactly_once;
          tc "surfaces expired session" test_client_surfaces_expired_session;
          tc "retries busy" test_client_retries_busy;
        ] );
      ( "tcp",
        [
          tc "basic" test_tcp_basic;
          tc "8 concurrent clients" test_tcp_concurrent_clients;
          tc "graceful drain" test_tcp_graceful_drain;
        ] );
    ]
