type t = {
  server : Server.t;
  client_name : string;
  mutable queue : Protocol.op list;  (* newest first *)
}

let connect server ~name = { server; client_name = name; queue = [] }

let name t = t.client_name

let checkout t names = Server.checkout t.server ~client:t.client_name ~names

let stage t op = t.queue <- op :: t.queue

let staged t = List.rev t.queue

let commit t =
  match Server.checkin t.server ~client:t.client_name (staged t) with
  | Ok () ->
    t.queue <- [];
    Ok ()
  | Error _ as e -> e

let abort t =
  t.queue <- [];
  ignore (Server.release t.server ~client:t.client_name)

let retrieve t name_ =
  Seed_core.Database.find_object (Server.database t.server) name_
