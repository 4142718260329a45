open Seed_util
open Seed_error
open Seed_server
module Codec = Seed_storage.Codec
module W = Codec.Writer
module R = Codec.Reader

type req_body =
  | Hello of {
      protocol : int;
      client : string;
      resume : (int64 * int64) option;
    }
  | Checkout of { names : string list; wait_timeout : float option }
  | Checkin of Protocol.op list
  | Release
  | Find of string
  | Select_isa of string
  | Stats
  | Ping
  | Bye
  | Search of { path : string; needles : string list }
      (* [Query.matches] over the wire: names of the live objects with a
         carrier at [path] ("" = any) containing all the needles *)

type request = { req_id : int64; body : req_body }

type err_code =
  | Locked
  | Deadlock
  | Unknown_name
  | Session_expired
  | Already_connected
  | Bad_request
  | Unsupported_protocol
  | Op_failed
  | Server_error

type wire_error = { code : err_code; message : string; retryable : bool }

type server_stats = {
  sv_sessions : int;
  sv_max_sessions : int;
  sv_in_flight : int;
  sv_max_in_flight : int;
  sv_served : int;
  sv_busy_rejects : int;
  sv_reaped_sessions : int;
  sv_checkins : int;
  sv_locks_held : int;
  sv_lock_waiters : int;
  sv_objects : int;
  sv_relationships : int;
  sv_versions : int;
}

type resp_body =
  | Welcome of {
      protocol : int;
      session : int64;
      token : int64;
      ttl : float;
      resumed : bool;
    }
  | Done
  | Found of string option
  | Names of string array
  | Stats_reply of server_stats
  | Pong
  | Busy of { retry_after : float }
  | Draining
  | Err of wire_error

type response = { rsp_id : int64; rbody : resp_body }

(* --- operations (values in the item-record encoding of Persist) ------ *)

let write_op w (op : Protocol.op) =
  match op with
  | Create_object { cls; name; pattern } ->
    W.u8 w 0;
    W.string w cls;
    W.string w name;
    W.bool w pattern
  | Create_sub { owner; role; index; value } ->
    W.u8 w 1;
    W.string w owner;
    W.string w role;
    W.option w W.varint index;
    W.option w Seed_core.Persist.w_value value
  | Create_rel { assoc; endpoints; pattern } ->
    W.u8 w 2;
    W.string w assoc;
    W.list w W.string endpoints;
    W.bool w pattern
  | Set_value { path; value } ->
    W.u8 w 3;
    W.string w path;
    W.option w Seed_core.Persist.w_value value
  | Rename { name; new_name } ->
    W.u8 w 4;
    W.string w name;
    W.string w new_name
  | Reclassify_obj { name; to_ } ->
    W.u8 w 5;
    W.string w name;
    W.string w to_
  | Reclassify_rel { assoc; endpoints; to_ } ->
    W.u8 w 6;
    W.string w assoc;
    W.list w W.string endpoints;
    W.string w to_
  | Delete { path } ->
    W.u8 w 7;
    W.string w path
  | Inherit { pattern; inheritor } ->
    W.u8 w 8;
    W.string w pattern;
    W.string w inheritor
  | Set_text { path; text } ->
    W.u8 w 9;
    W.string w path;
    W.string w text

let read_op r : Protocol.op =
  match R.u8 r with
  | 0 ->
    let cls = R.string r in
    let name = R.string r in
    let pattern = R.bool r in
    Protocol.Create_object { cls; name; pattern }
  | 1 ->
    let owner = R.string r in
    let role = R.string r in
    let index = R.option r R.varint in
    let value = R.option r Seed_core.Persist.r_value in
    Protocol.Create_sub { owner; role; index; value }
  | 2 ->
    let assoc = R.string r in
    let endpoints = R.list r R.string in
    let pattern = R.bool r in
    Protocol.Create_rel { assoc; endpoints; pattern }
  | 3 ->
    let path = R.string r in
    let value = R.option r Seed_core.Persist.r_value in
    Protocol.Set_value { path; value }
  | 4 ->
    let name = R.string r in
    let new_name = R.string r in
    Protocol.Rename { name; new_name }
  | 5 ->
    let name = R.string r in
    let to_ = R.string r in
    Protocol.Reclassify_obj { name; to_ }
  | 6 ->
    let assoc = R.string r in
    let endpoints = R.list r R.string in
    let to_ = R.string r in
    Protocol.Reclassify_rel { assoc; endpoints; to_ }
  | 7 -> Protocol.Delete { path = R.string r }
  | 8 ->
    let pattern = R.string r in
    let inheritor = R.string r in
    Protocol.Inherit { pattern; inheritor }
  | 9 ->
    let path = R.string r in
    let text = R.string r in
    Protocol.Set_text { path; text }
  | n -> R.fail (Printf.sprintf "unknown op tag %d" n)

(* --- requests --------------------------------------------------------- *)

let encode_request { req_id; body } =
  let w = W.create () in
  W.i64 w req_id;
  (match body with
  | Hello { protocol; client; resume } ->
    W.u8 w 0;
    W.varint w protocol;
    W.string w client;
    W.option w (fun w (sid, tok) -> W.i64 w sid; W.i64 w tok) resume
  | Checkout { names; wait_timeout } ->
    W.u8 w 1;
    W.list w W.string names;
    W.option w W.float wait_timeout
  | Checkin ops ->
    W.u8 w 2;
    W.list w write_op ops
  | Release -> W.u8 w 3
  | Find name ->
    W.u8 w 4;
    W.string w name
  | Select_isa cls ->
    W.u8 w 5;
    W.string w cls
  | Stats -> W.u8 w 6
  | Ping -> W.u8 w 7
  | Bye -> W.u8 w 8
  | Search { path; needles } ->
    W.u8 w 9;
    W.string w path;
    W.list w W.string needles);
  W.contents w

let decode_request_sub s ~pos ~len =
  R.run_sub s ~pos ~len @@ fun r ->
  let req_id = R.i64 r in
  let tag = R.u8 r in
  let body =
    match tag with
    | 0 ->
      let protocol = R.varint r in
      let client = R.string r in
      let resume =
        R.option r (fun r ->
            let sid = R.i64 r in
            let tok = R.i64 r in
            (sid, tok))
      in
      Hello { protocol; client; resume }
    | 1 ->
      let names = R.list r R.string in
      let wait_timeout = R.option r R.float in
      Checkout { names; wait_timeout }
    | 2 -> Checkin (R.list r read_op)
    | 3 -> Release
    | 4 -> Find (R.string r)
    | 5 -> Select_isa (R.string r)
    | 6 -> Stats
    | 7 -> Ping
    | 8 -> Bye
    | 9 ->
      let path = R.string r in
      let needles = R.list r R.string in
      Search { path; needles }
    | n -> R.fail (Printf.sprintf "unknown request tag %d" n)
  in
  { req_id; body }

let decode_request s = decode_request_sub s ~pos:0 ~len:(String.length s)

(* --- responses -------------------------------------------------------- *)

let code_to_int = function
  | Locked -> 0
  | Deadlock -> 1
  | Unknown_name -> 2
  | Session_expired -> 3
  | Already_connected -> 4
  | Bad_request -> 5
  | Unsupported_protocol -> 6
  | Op_failed -> 7
  | Server_error -> 8

let code_of_int = function
  | 0 -> Locked
  | 1 -> Deadlock
  | 2 -> Unknown_name
  | 3 -> Session_expired
  | 4 -> Already_connected
  | 5 -> Bad_request
  | 6 -> Unsupported_protocol
  | 7 -> Op_failed
  | 8 -> Server_error
  | n -> R.fail (Printf.sprintf "unknown error code %d" n)

let write_stats w s =
  List.iter (W.varint w)
    [
      s.sv_sessions; s.sv_max_sessions; s.sv_in_flight; s.sv_max_in_flight;
      s.sv_served; s.sv_busy_rejects; s.sv_reaped_sessions; s.sv_checkins;
      s.sv_locks_held; s.sv_lock_waiters; s.sv_objects; s.sv_relationships;
      s.sv_versions;
    ]

let read_stats r =
  let sv_sessions = R.varint r in
  let sv_max_sessions = R.varint r in
  let sv_in_flight = R.varint r in
  let sv_max_in_flight = R.varint r in
  let sv_served = R.varint r in
  let sv_busy_rejects = R.varint r in
  let sv_reaped_sessions = R.varint r in
  let sv_checkins = R.varint r in
  let sv_locks_held = R.varint r in
  let sv_lock_waiters = R.varint r in
  let sv_objects = R.varint r in
  let sv_relationships = R.varint r in
  let sv_versions = R.varint r in
  {
    sv_sessions; sv_max_sessions; sv_in_flight; sv_max_in_flight; sv_served;
    sv_busy_rejects; sv_reaped_sessions; sv_checkins; sv_locks_held;
    sv_lock_waiters; sv_objects; sv_relationships; sv_versions;
  }

let write_response w { rsp_id; rbody } =
  W.i64 w rsp_id;
  (match rbody with
  | Welcome { protocol; session; token; ttl; resumed } ->
    W.u8 w 0;
    W.varint w protocol;
    W.i64 w session;
    W.i64 w token;
    W.float w ttl;
    W.bool w resumed
  | Done -> W.u8 w 1
  | Found c ->
    W.u8 w 2;
    W.option w W.string c
  | Names ns ->
    W.u8 w 3;
    W.iter w W.string (Array.length ns) (fun f -> Array.iter f ns)
  | Stats_reply s ->
    W.u8 w 4;
    write_stats w s
  | Pong -> W.u8 w 5
  | Busy { retry_after } ->
    W.u8 w 6;
    W.float w retry_after
  | Draining -> W.u8 w 7
  | Err { code; message; retryable } ->
    W.u8 w 8;
    W.u8 w (code_to_int code);
    W.string w message;
    W.bool w retryable)

let encode_response r =
  let w = W.create () in
  write_response w r;
  W.contents w

let response_frame w r =
  Frame.start w;
  write_response w r;
  Frame.seal w

let decode_response s =
  R.run s @@ fun r ->
  let rsp_id = R.i64 r in
  let tag = R.u8 r in
  let rbody =
    match tag with
    | 0 ->
      let protocol = R.varint r in
      let session = R.i64 r in
      let token = R.i64 r in
      let ttl = R.float r in
      let resumed = R.bool r in
      Welcome { protocol; session; token; ttl; resumed }
    | 1 -> Done
    | 2 -> Found (R.option r R.string)
    | 3 -> Names (Array.init (R.count r) (fun _ -> R.string r))
    | 4 -> Stats_reply (read_stats r)
    | 5 -> Pong
    | 6 -> Busy { retry_after = R.float r }
    | 7 -> Draining
    | 8 ->
      let ci = R.u8 r in
      let code = code_of_int ci in
      let message = R.string r in
      let retryable = R.bool r in
      Err { code; message; retryable }
    | n -> R.fail (Printf.sprintf "unknown response tag %d" n)
  in
  { rsp_id; rbody }

(* --- error classification --------------------------------------------- *)

let error_to_wire (e : t) =
  let message = Seed_error.to_string e in
  match e with
  | Seed_error.Locked _ -> { code = Locked; message; retryable = true }
  | Seed_error.Deadlock _ ->
    (* the victim's locks were released; re-checkout and retry is sound *)
    { code = Deadlock; message; retryable = true }
  | Seed_error.Io_transient _ ->
    { code = Server_error; message; retryable = true }
  | Seed_error.Unknown_object _ | Seed_error.Unknown_item _
  | Seed_error.Unknown_class _ | Seed_error.Unknown_association _
  | Seed_error.Unknown_version _ ->
    { code = Unknown_name; message; retryable = false }
  | Seed_error.Io_error _ | Seed_error.Corrupt _ ->
    { code = Server_error; message; retryable = false }
  | _ -> { code = Op_failed; message; retryable = false }

let pp_server_stats ppf s =
  Fmt.pf ppf
    "@[<v>sessions: %d live (max %d), %d reaped@,\
     in flight: %d (max %d)@,\
     requests served: %d, shed busy: %d@,\
     check-ins: %d@,\
     locks: %d held, %d waiters@,\
     objects: %d, relationships: %d, versions: %d@]"
    s.sv_sessions s.sv_max_sessions s.sv_reaped_sessions s.sv_in_flight
    s.sv_max_in_flight s.sv_served s.sv_busy_rejects s.sv_checkins
    s.sv_locks_held s.sv_lock_waiters
    s.sv_objects s.sv_relationships s.sv_versions
