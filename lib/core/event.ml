(** Update events delivered to attached procedures.

    Attached procedures may be attached to any SEED schema element; they
    are executed when an item of the corresponding schema element is
    updated (paper, §Incomplete data). *)

open Seed_util
open Seed_schema

type t =
  | Created of Ident.t
  | Value_updated of { id : Ident.t; old_value : Value.t option }
  | Renamed of { id : Ident.t; old_name : string }
  | Reclassified of { id : Ident.t; from_ : string }
  | Deleted of Ident.t
  | Inherited of { pattern : Ident.t; inheritor : Ident.t }
