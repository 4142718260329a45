open Seed_util.Seed_error

type t = {
  table : (string, string) Hashtbl.t;  (* name -> holder *)
  (* who is currently blocked inside [acquire_wait], and on what names —
     the edges of the wait-for graph the deadlock detector walks *)
  waiting : (string, string list) Hashtbl.t;
}

let create () = { table = Hashtbl.create 32; waiting = Hashtbl.create 8 }

let holder t name = Hashtbl.find_opt t.table name

let acquire t ~client names =
  let conflict =
    List.find_map
      (fun n ->
        match holder t n with
        | Some h when not (String.equal h client) -> Some (n, h)
        | Some _ | None -> None)
      names
  in
  match conflict with
  | Some (item, holder) -> fail (Locked { item; holder })
  | None ->
    List.iter (fun n -> Hashtbl.replace t.table n client) names;
    Ok ()

let held_by t ~client =
  Hashtbl.fold
    (fun n h acc -> if String.equal h client then n :: acc else acc)
    t.table []
  |> List.sort String.compare

let release t ~client =
  let mine = held_by t ~client in
  List.iter (Hashtbl.remove t.table) mine;
  Hashtbl.remove t.waiting client;
  mine

(* Follows wait-for edges (waiter -> holder of a wanted name)
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
               match holder t n with
               | Some h when not (String.equal h c) -> Some h
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

let acquire_wait t ~client ?(now = Unix.gettimeofday) ?(sleep = Unix.sleepf)
    ~timeout names =
  let deadline = now () +. timeout in
  let finish r =
    Hashtbl.remove t.waiting client;
    r
  in
  let rec attempt n =
    match acquire t ~client names with
    | Ok () -> finish (Ok ())
    | Error _ as err -> (
      Hashtbl.replace t.waiting client names;
      match find_cycle t client with
      | Some cycle ->
        (* abort one victim — the requester that closed the cycle — so
           everyone else can make progress *)
        ignore (release t ~client);
        fail (Deadlock { victim = client; cycle })
      | None ->
        if now () >= deadline then finish err
        else begin
          sleep
            (Seed_util.Retry.delay_for Seed_util.Retry.default_policy
               ~attempt:(min n 16));
          attempt (n + 1)
        end)
  in
  attempt 1

type stats = { locks_held : int; waiters : int }

let stats t =
  { locks_held = Hashtbl.length t.table; waiters = Hashtbl.length t.waiting }

(* the smallest name not held, so the error does not depend on the
   order [each] finds them in; a held name allocates nothing *)
let covers t ~client each =
  let missing = ref None in
  let miss n found =
    match !missing with
    | Some (m, _) when String.compare m n <= 0 -> ()
    | Some _ | None -> missing := Some (n, found)
  in
  each (fun n ->
      match Hashtbl.find t.table n with
      | h -> if not (String.equal h client) then miss n (Some h)
      | exception Not_found -> miss n None);
  match !missing with
  | None -> Ok ()
  | Some (item, Some holder) -> fail (Locked { item; holder })
  | Some (n, None) ->
    fail
      (Invalid_operation
         (Printf.sprintf "client %s has not checked out %s" client n))
