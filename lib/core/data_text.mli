(** Textual import/export of database contents.

    One view of a database — objects with their sub-object trees and
    values, patterns, inheritance, relationships with attributes — as a
    human-readable text, so specifications can be exchanged, diffed and
    seeded from files:

    {v
    object Alarms : InputData {
      Description = "alarm store"
      Text[0] {
        Body = "Alarms are represented in an alarm display matrix"
        Selector = "Representation"
      }
      Keywords[0] = "Alarmhandling"
    }
    pattern Template : Data {
      Description = "std"
    }
    object Real : Data inherits (Template)

    rel Read (Alarms, Handler)
    rel Write (Alarms, Handler) {
      NumberOfWrites = 3
      OnError = repeat
    }
    pattern rel Access (Template, Handler)
    v}

    Values: quoted strings (with backslash escapes for quotes, tabs and
    newlines), integers, floats (decimal, or the hexadecimal form export
    writes), [true]/[false], dates as [1986-02-05], enum constants as
    bare identifiers. A bare word is read by the content type of the
    class or attribute it lands in: [nan] and [infinity] are floats in
    a FLOAT place and constants in an ENUM place, [true] is a constant
    in an ENUM place. A name that is not an identifier ([a-b],
    [9lives]) is written as a string literal, accepted wherever a name
    stands. Comments run from [//] to end of line. The tokens
    are those of {!Seed_schema.Text_lexer}, shared with the schema
    language; syntax errors are [Invalid_operation] naming the line.

    {!export_view} renders one version's view (versions themselves are
    not part of the format); {!import} replays a text into a database
    under the same schema, going through the full operational interface
    — so imports are consistency-checked like any other update. *)

val export_view : View.t -> string

val parse_literal :
  Seed_schema.Value_type.t option ->
  string ->
  (Seed_schema.Value.t, Seed_util.Seed_error.t) result
(** [parse_literal ty text] is the value [text] denotes in a place of
    content type [ty]: a STRING place takes the text verbatim; any other
    reads it as one literal of this language, typed as {!import} types
    it ([2.5], [1986-02-05], [nan] as a FLOAT, an ENUM constant as a bare
    word). A syntax error or an impossible date is [Invalid_operation].
    The value is not checked against [ty]: the update that stores it
    does that. *)

val import : Database.t -> string -> (unit, Seed_util.Seed_error.t) result
(** Creates every object (patterns included), then the inheritance
    links, then the relationships. The first failing operation aborts
    the import; already-imported items remain (wrap in a fresh database
    or a server transaction for all-or-nothing semantics). *)
