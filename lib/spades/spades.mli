(** SPADES-mini: a specification and design tool built on SEED.

    SEED was designed as the database of the SPADES specification system
    [9]; this module is a faithful miniature of that tool layer. It
    exposes specification-level operations (note a thing, refine it into
    data or an action, record data flow, structure actions into a
    containment tree) and maps them onto the SEED operational interface.

    Development is evolutionary: information is accepted independently
    of its formality and completeness, but the collected information is
    kept consistent at every stage; {!maturity} reports how far the
    specification still is from the "sufficiently formal, complete and
    precise" final state. *)

open Seed_util
open Seed_schema

type t

val create : unit -> t
(** A fresh specification database under {!Spec_model.schema}. *)

val db : t -> Seed_core.Database.t
(** The underlying SEED database, for direct access (versions, patterns,
    queries). *)

(** {1 Entering and refining things} *)

val note_thing : t -> string -> ?description:string -> unit ->
  (Ident.t, Seed_error.t) result
(** Enter vague information: "there is a thing with this name". *)

val classify_data : t -> string -> (unit, Seed_error.t) result
(** Refine: the thing is a data object. *)

val classify_action : t -> string -> (unit, Seed_error.t) result

val add_keyword : t -> string -> string -> (unit, Seed_error.t) result

val add_text : t -> data:string -> body:string -> ?selector:string -> unit ->
  (Ident.t, Seed_error.t) result
(** Attach a text block to a data object (Fig. 1's
    ['Alarms.Text.Body']). *)

val set_revised : t -> string -> Value.date -> (unit, Seed_error.t) result

(** {1 Data flow} *)

type flow = Vague | Reading | Writing

val add_flow :
  t -> data:string -> action:string -> flow -> (Ident.t, Seed_error.t) result
(** Record a data flow between a data object and an action. [Vague]
    enters an [Access] relationship — "there is a dataflow, we do not
    yet know whether it is a read or a write". *)

val refine_flow : t -> Ident.t -> flow -> (unit, Seed_error.t) result
(** Specialize (or re-generalize) an access relationship. Refining to
    [Reading]/[Writing] also re-classifies the data endpoint to
    [InputData]/[OutputData] when it is still too general. *)

val contain : t -> container:string -> action:string ->
  (Ident.t, Seed_error.t) result
(** Place an action inside a container action (the ACYCLIC tree). *)

(** {1 Reports} *)

type maturity = {
  things : int;  (** objects still classified as bare [Thing] *)
  data : int;
  actions : int;
  vague_flows : int;  (** relationships still classified [Access] *)
  precise_flows : int;
  diagnostics : Seed_core.Completeness.diagnostic list;
}

val maturity : t -> maturity
(** The specification's distance from a fully formal state. *)

val is_implementable : t -> bool
(** No completeness diagnostics and nothing vague left. *)

val save_milestone : t -> (Version_id.t, Seed_error.t) result
(** Snapshot the current development state (paper: "the state of the
    development is saved after every larger modification"). *)

val pp_maturity : Format.formatter -> maturity -> unit
