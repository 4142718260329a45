(** The client/server update language and its one interpreter.

    The paper sketches a two-level approach to multi-user operation
    (§Discussion): one central server runs the complete database;
    clients use the server for retrieval but take local copies for
    making updates; checked-out data is write-locked centrally; sending
    an updated copy back applies the modifications in a single
    transaction.

    Updates travel as name-addressed operations so they are independent
    of server-side item identifiers. {!apply} gives them their meaning:
    a served check-in runs it, and so does every update command of the
    command line. *)

open Seed_util
open Seed_schema

type op =
  | Create_object of { cls : string; name : string; pattern : bool }
  | Create_sub of {
      owner : string;  (** composed name of the parent (sub-)object *)
      role : string;
      index : int option;
      value : Value.t option;
    }
  | Create_rel of { assoc : string; endpoints : string list; pattern : bool }
  | Set_value of { path : string; value : Value.t option }
  | Set_text of { path : string; text : string }
      (** [path := text], the text read for the content type of its
          place ({!Seed_core.Data_text.parse_literal}: a STRING place
          takes it verbatim); a missing single sub-object [Owner.Role]
          is created holding the value *)
  | Rename of { name : string; new_name : string }
  | Reclassify_obj of { name : string; to_ : string }
      (** an object or sub-object addressed by its composed name *)
  | Reclassify_rel of {
      assoc : string;
      endpoints : string list;
      to_ : string;
    }  (** a relationship addressed by its association and endpoints *)
  | Delete of { path : string }
  | Inherit of { pattern : string; inheritor : string }

val iter_touches : op -> (string -> unit) -> unit
(** [iter_touches op f] passes [f] each name of an independent object
    the operation modifies — the set that must be covered by the
    client's write locks. Paths addressing sub-objects (dotted) are
    reduced to their root object. [Rename] passes its target name too:
    it only needs a lock when it collides with an existing object,
    which the server decides (fresh names cannot be locked). Fresh
    names introduced by [Create_object] are not passed (the server
    rejects duplicates at apply time). *)

val find_name :
  Seed_core.Database.t -> string -> (Ident.t, Seed_error.t) result
(** The independent object or pattern of this name in the current
    state: the name check of check-out, of lock coverage and of
    {!apply}. *)

val apply :
  Seed_core.Database.t -> op -> (Ident.t, Seed_error.t) result
(** Perform one operation through the database's update procedures and
    return the item it created or changed (an [Inherit]'s inheritor).
    Names and paths resolve in the current state, never in the version
    selected for retrieval: updates always apply to the current version.
    A failing operation changes nothing; a batch is atomic only inside
    a transaction, as [Server.checkin] runs it. *)
