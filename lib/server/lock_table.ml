open Seed_util.Seed_error

type entry = { holder : string; expires : float option }

type t = {
  table : (string, entry) Hashtbl.t;
  (* who is currently blocked inside [acquire_wait], and on what names —
     the edges of the wait-for graph the deadlock detector walks *)
  waiting : (string, string list) Hashtbl.t;
  now : unit -> float;
}

let create ?(now = Unix.gettimeofday) () =
  { table = Hashtbl.create 32; waiting = Hashtbl.create 8; now }

let expired t e =
  match e.expires with None -> false | Some at -> at <= t.now ()

(* The live holder of a name: an expired lease reads as free everywhere,
   so a dead client's locks stop blocking the moment they lapse even if
   nobody called [expire_stale] yet. *)
let live_entry t name =
  match Hashtbl.find_opt t.table name with
  | Some e when not (expired t e) -> Some e
  | Some _ | None -> None

(* Removes every entry satisfying [p], returning the removed
   [(name, holder)] pairs in no particular order. *)
let remove_where t p =
  let gone =
    Hashtbl.fold
      (fun n e acc -> if p e then (n, e.holder) :: acc else acc)
      t.table []
  in
  List.iter (fun (n, _) -> Hashtbl.remove t.table n) gone;
  gone

let held_by_client client e = String.equal e.holder client

(* Drops every expired lease from the table. Expired leases already read
   as free through [live_entry], but reaping on each acquisition keeps
   the table from accumulating dead entries — and guarantees a stale
   lease never blocks a fresh checkout even on code paths that consult
   the raw table. *)
let remove_expired t = remove_where t (expired t)

let acquire t ~client ?ttl names =
  ignore (remove_expired t);
  let conflict =
    List.find_opt
      (fun n ->
        match live_entry t n with
        | Some e -> not (String.equal e.holder client)
        | None -> false)
      names
  in
  match conflict with
  | Some n ->
    fail
      (Locked { item = n; holder = (Option.get (live_entry t n)).holder })
  | None ->
    let expires = Option.map (fun s -> t.now () +. s) ttl in
    List.iter (fun n -> Hashtbl.replace t.table n { holder = client; expires }) names;
    Ok ()

let release_all t ~client = ignore (remove_where t (held_by_client client))

(* Session reaping: one call frees everything a dead client left behind
   — its locks (live or lapsed) and its wait-for edge, so it can neither
   block other clients nor figure in a phantom deadlock cycle. Returns
   what was freed so the server can log the reap. *)
let release_session t ~client =
  let mine = remove_where t (held_by_client client) in
  Hashtbl.remove t.waiting client;
  List.sort String.compare (List.map fst mine)

(* Follows wait-for edges (waiter -> live holder of a wanted name)
   depth-first from [start]; a path back to [start] is a deadlock. *)
let find_cycle t start =
  let rec dfs visited path c =
    match Hashtbl.find_opt t.waiting c with
    | None -> None
    | Some names ->
      let holders =
        List.sort_uniq String.compare
          (List.filter_map
             (fun n ->
               match live_entry t n with
               | Some e when not (String.equal e.holder c) -> Some e.holder
               | Some _ | None -> None)
             names)
      in
      List.find_map
        (fun h ->
          if String.equal h start then Some (List.rev (h :: path))
          else if List.mem h visited then None
          else dfs (h :: visited) (h :: path) h)
        holders
  in
  dfs [ start ] [ start ] start

let acquire_wait t ~client ?ttl ?(policy = Seed_util.Retry.default_policy)
    ?(sleep = Unix.sleepf) ~timeout names =
  let deadline = t.now () +. timeout in
  let finish r =
    Hashtbl.remove t.waiting client;
    r
  in
  let rec attempt n =
    match acquire t ~client ?ttl names with
    | Ok () -> finish (Ok ())
    | Error (Locked _) as err -> (
      Hashtbl.replace t.waiting client names;
      match find_cycle t client with
      | Some cycle ->
        (* abort one victim — the requester that closed the cycle — so
           everyone else can make progress *)
        release_all t ~client;
        finish (fail (Deadlock { victim = client; cycle }))
      | None ->
        if t.now () >= deadline then finish err
        else begin
          sleep (Seed_util.Retry.delay_for policy ~attempt:(min n 16));
          attempt (n + 1)
        end)
    | other -> finish other
  in
  attempt 1

let expire_stale t =
  List.sort (fun (a, _) (b, _) -> String.compare a b) (remove_expired t)

type stats = {
  locks_held : int;
  locks_leased : int;
  locks_expired : int;
  waiters : int;
}

let stats t =
  let held = ref 0 and leased = ref 0 and lapsed = ref 0 in
  Hashtbl.iter
    (fun _ e ->
      if expired t e then incr lapsed
      else begin
        incr held;
        if e.expires <> None then incr leased
      end)
    t.table;
  {
    locks_held = !held;
    locks_leased = !leased;
    locks_expired = !lapsed;
    waiters = Hashtbl.length t.waiting;
  }

let holder t name = Option.map (fun e -> e.holder) (live_entry t name)

let expires_at t name =
  match live_entry t name with Some e -> e.expires | None -> None

let held_by t ~client =
  Hashtbl.fold
    (fun n e acc ->
      if String.equal e.holder client && not (expired t e) then n :: acc
      else acc)
    t.table []
  |> List.sort String.compare

let covers t ~client names =
  let missing =
    List.find_opt
      (fun n ->
        match live_entry t n with
        | Some e -> not (String.equal e.holder client)
        | None -> true)
      names
  in
  match missing with
  | None -> Ok ()
  | Some n ->
    (match live_entry t n with
    | Some e -> fail (Locked { item = n; holder = e.holder })
    | None ->
      fail
        (Invalid_operation
           (Printf.sprintf "client %s has not checked out %s" client n)))
