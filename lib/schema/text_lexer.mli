(** The lexer and token stream shared by SEED's two text notations: the
    schema language ({!Schema_text}) and the data language
    ([Seed_core.Data_text]).

    The tokens are the union of what the two grammars use; each parser
    refuses a token its grammar has no place for. Comments run from
    [//] to end of line. String literals are double-quoted, on one
    line; a backslash escapes a newline ([n]), a tab ([t]), a double
    quote or a backslash. Numbers are decimal or [0x] integers, decimal
    floats with an optional exponent, and the hexadecimal floats that
    [Printf "%h"] writes ([0x1.4p+1]). A number never swallows a
    following [..], so [0..16] is [INT 0; DOTDOT; INT 16]. A sign is its
    own [MINUS] token. *)

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | LBRACE
  | RBRACE
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | EQUALS
  | COLON
  | COMMA
  | MINUS
  | DOTDOT
  | STAR
  | EOF

type t
(** A token stream over one source text. *)

val of_string :
  error:(string -> Seed_util.Seed_error.t) ->
  string ->
  (t, Seed_util.Seed_error.t) result
(** Lexes the whole text. [error] builds the caller's error from a
    message ["line N: ..."]; every failure reported by this module,
    lexical or syntactic, goes through it. *)

val peek : t -> token
(** The next token; {!EOF} once the text is used up. *)

val advance : t -> unit

val is_ident : string -> bool
(** Whether the text lexes as one {!IDENT}: non-empty, of letters,
    digits and underscores, not starting with a digit. *)

val fail_here : t -> string -> ('a, Seed_util.Seed_error.t) result
(** [fail_here st msg] fails with ["line N: MSG"], where [N] is the line
    of the next token. *)

val unexpected : t -> string -> ('a, Seed_util.Seed_error.t) result
(** [unexpected st what] fails with ["line N: expected WHAT, found T"],
    where [T] is the next token and [N] its line. *)

val expect : t -> token -> string -> (unit, Seed_util.Seed_error.t) result
(** Consumes the given token, or fails as {!unexpected}. *)

val ident : t -> string -> (string, Seed_util.Seed_error.t) result
val int : t -> string -> (int, Seed_util.Seed_error.t) result

val name : t -> string -> (string, Seed_util.Seed_error.t) result
(** A name: an identifier, or a string literal for a name that is not
    one. *)

val eat_keyword : t -> string -> bool
(** Consumes the identifier given when it comes next. *)

val paren_list :
  t ->
  string ->
  (t -> ('a, Seed_util.Seed_error.t) result) ->
  ('a list, Seed_util.Seed_error.t) result
(** [paren_list st what item] reads [( item (, item)* )]; [what]
    names the opening parenthesis in the error when it is missing. *)
