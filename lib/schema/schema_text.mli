(** A textual schema language for SEED.

    The paper's figures define schemas graphically; this module gives
    them a concrete syntax so tools (and the [seed] CLI) can load a
    schema from a file. {!print} emits the same language, and
    [parse (print s)] reproduces [s].

    {v
    // the Fig. 3 schema
    class Thing covering {
      Description : STRING [0..1]
      Revised     : DATE   [0..1]
      Keywords    : STRING [0..8]
    }
    class Data isa Thing {
      Text [0..16] {
        Body     : STRING [1..1]
        Selector : STRING [0..1]
      }
    }
    class InputData isa Data
    class OutputData isa Data
    class Action isa Thing

    assoc Access covering (from : Data [0..*], by : Action [1..*])
    assoc Read isa Access (from : InputData, by : Action)
    assoc Write isa Access (to : OutputData, by : Action) {
      NumberOfWrites : INT required
      OnError : ENUM(abort,repeat)
    }
    assoc Contained acyclic (contained : Action [0..1], container : Action)
    v}

    Class members are sub-classes: a member with a value type is a leaf
    carrying instances of that type; a member with a body has further
    sub-classes; both may combine. Cardinalities default to [0..*].
    [procedures (p, q)] after a class, member or association header
    attaches procedures. Comments run from [//] to end of line. The
    tokens are those of {!Text_lexer}, shared with the data language;
    an integer may also be written in hex ([0x10]). *)

val parse : string -> (Schema.t, Seed_util.Seed_error.t) result
(** Parse and validate a schema. Syntax errors are reported as
    [Schema_violation] with line information; the result is validated
    with {!Schema.validate}. *)

val print : Schema.t -> string
(** Canonical rendering; [parse (print s)] succeeds and is structurally
    equal to [s] (same classes, associations and revision 1). *)
