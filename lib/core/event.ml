open Seed_util
open Seed_schema

type t =
  | Created of Ident.t
  | Value_updated of { id : Ident.t; old_value : Value.t option }
  | Renamed of { id : Ident.t; old_name : string }
  | Reclassified of { id : Ident.t; from_ : string }
  | Deleted of Ident.t
  | Inherited of { pattern : Ident.t; inheritor : Ident.t }

let pp ppf = function
  | Created id -> Fmt.pf ppf "created %a" Ident.pp id
  | Value_updated { id; _ } -> Fmt.pf ppf "value-updated %a" Ident.pp id
  | Renamed { id; old_name } ->
    Fmt.pf ppf "renamed %a (was %S)" Ident.pp id old_name
  | Reclassified { id; from_ } ->
    Fmt.pf ppf "reclassified %a (was %s)" Ident.pp id from_
  | Deleted id -> Fmt.pf ppf "deleted %a" Ident.pp id
  | Inherited { pattern; inheritor } ->
    Fmt.pf ppf "%a inherited pattern %a" Ident.pp inheritor Ident.pp pattern
