type t = {
  server : Server.t;
  client_name : string;
  mutable queue : Protocol.op list;  (* newest first *)
}

let connect server ~name = { server; client_name = name; queue = [] }


let checkout t names = Server.checkout t.server ~client:t.client_name ~names

let stage t op = t.queue <- op :: t.queue

let commit t =
  match Server.checkin t.server ~client:t.client_name (List.rev t.queue) with
  | Ok () ->
    t.queue <- [];
    Ok ()
  | Error _ as e -> e

let abort t =
  t.queue <- [];
  ignore (Server.release t.server ~client:t.client_name)
