open Seed_util
open Seed_schema

type obj_state = {
  name : string option;
  cls : string;
  value : Value.t option;
  pattern : bool;
  inherits : Ident.t list;
  deleted : bool;
}

type rel_state = {
  assoc : string;
  endpoints : Ident.t list;
  rel_attrs : (string * Value.t) list;
  rel_pattern : bool;
  rel_deleted : bool;
}

type state = Obj of obj_state | Rel of rel_state

type body =
  | Independent
  | Dependent of { parent : Ident.t; role : string; index : int option }
  | Relationship

type t = {
  id : Ident.t;
  body : body;
  current : state option;
  history : state Version_id.Map.t;
}

let make id body state = { id; body; current = Some state; history = Version_id.Map.empty }

let with_current t current = { t with current }

let state_deleted = function
  | Obj o -> o.deleted
  | Rel r -> r.rel_deleted

let state_pattern = function
  | Obj o -> o.pattern
  | Rel r -> r.rel_pattern

let component t =
  match t.body with
  | Dependent { role; index; _ } -> Path.component_to_string { Path.name = role; index }
  | Independent | Relationship -> "?"

let obj_state t =
  match t.current with Some (Obj o) -> Some o | Some (Rel _) | None -> None

let rel_state t =
  match t.current with Some (Rel r) -> Some r | Some (Obj _) | None -> None

let stamp_at t vid = Version_id.Map.find_opt vid t.history

let stamp t vid =
  let history =
    match t.current with
    | Some s -> Version_id.Map.add vid s t.history
    | None -> t.history
  in
  { t with history }

let drop_stamp t vid =
  if Version_id.Map.mem vid t.history then
    { t with history = Version_id.Map.remove vid t.history }
  else t

let history_is_empty t = Version_id.Map.is_empty t.history
let history_bindings t = Version_id.Map.bindings t.history

let history_of_bindings l =
  List.fold_left (fun m (v, s) -> Version_id.Map.add v s m) Version_id.Map.empty l

let history_exists f t = Version_id.Map.exists (fun _ s -> f s) t.history
let any_history_state t = Option.map snd (Version_id.Map.choose_opt t.history)
