open Seed_util
open Seed_schema

type state =
  | Absent
  | Obj of {
      name : string option;
      cls : string;
      value : Value.t option;
      pattern : bool;
      inherits : Ident.t list;
      deleted : bool;
    }
  | Rel of {
      assoc : string;
      endpoints : Ident.t list;
      rel_attrs : (string * Value.t) list;
      rel_pattern : bool;
      rel_deleted : bool;
    }

type body =
  | Independent
  | Dependent of { parent : Ident.t; role : string; index : int option }
  | Relationship

type t = {
  id : Ident.t;
  body : body;
  current : state;
  history : state Version_id.Map.t;
}

let make id body state = { id; body; current = state; history = Version_id.Map.empty }
let none = make (Ident.of_int max_int) Relationship Absent

let with_current t current = { t with current }

let state_deleted = function
  | Obj o -> o.deleted
  | Rel r -> r.rel_deleted
  | Absent -> false

let state_pattern = function
  | Obj o -> o.pattern
  | Rel r -> r.rel_pattern
  | Absent -> false

let state_live = function
  | Obj o -> not o.deleted
  | Rel r -> not r.rel_deleted
  | Absent -> false

let component t =
  match t.body with
  | Dependent { role; index; _ } -> Path.component_to_string { Path.name = role; index }
  | Independent | Relationship -> "?"

let stamp_at t vid =
  match Version_id.Map.find vid t.history with s -> s | exception Not_found -> Absent

let stamp t vid =
  match t.current with
  | Absent -> t
  | s -> { t with history = Version_id.Map.add vid s t.history }

let drop_stamp t vid =
  if Version_id.Map.mem vid t.history then
    { t with history = Version_id.Map.remove vid t.history }
  else t

let history_is_empty t = Version_id.Map.is_empty t.history
let history_bindings t = Version_id.Map.bindings t.history

let history_of_bindings l =
  List.fold_left (fun m (v, s) -> Version_id.Map.add v s m) Version_id.Map.empty l

let history_exists f t = Version_id.Map.exists (fun _ s -> f s) t.history
