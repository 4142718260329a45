open Seed_util
open Seed_error

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

let token_name = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT n -> Printf.sprintf "integer %d" n
  | FLOAT f -> Printf.sprintf "float %g" f
  | STRING s -> Printf.sprintf "string %S" s
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | EQUALS -> "'='"
  | COLON -> "':'"
  | COMMA -> "','"
  | MINUS -> "'-'"
  | DOTDOT -> "'..'"
  | STAR -> "'*'"
  | EOF -> "end of input"

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_char c =
  is_digit c || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident s = s <> "" && (not (is_digit s.[0])) && String.for_all is_ident_char s

let rec skip_while p src j =
  if j < String.length src && p src.[j] then skip_while p src (j + 1) else j

(* End of the number starting at [i]: digits, an optional fraction and
   an optional exponent; a [0x] number takes hex digits and a [p]
   exponent. A '.' followed by another '.' is a range, not a fraction. *)
let number_end src i =
  let n = String.length src in
  let at j p = j < n && p src.[j] in
  let hex = at (i + 1) (fun c -> c = 'x' || c = 'X') && src.[i] = '0' in
  let digit = if hex then is_hex else is_digit in
  let j = skip_while digit src (if hex then i + 2 else i) in
  let j =
    if at j (( = ) '.') && not (at (j + 1) (( = ) '.')) then
      skip_while digit src (j + 1)
    else j
  in
  let exponent c = if hex then c = 'p' || c = 'P' else c = 'e' || c = 'E' in
  if at j exponent then
    let k = if at (j + 1) (fun c -> c = '+' || c = '-') then j + 2 else j + 1 in
    if at k is_digit then skip_while is_digit src k else j
  else j

let lex ~error src =
  let n = String.length src in
  let out = ref [] in
  let line = ref 1 in
  let error msg = fail (error (Printf.sprintf "line %d: %s" !line msg)) in
  let rec go i =
    if i >= n then begin
      out := (EOF, !line) :: !out;
      Ok (List.rev !out)
    end
    else
      let emit t j =
        out := (t, !line) :: !out;
        go j
      in
      let c = src.[i] in
      if c = '\n' then begin
        incr line;
        go (i + 1)
      end
      else if c = ' ' || c = '\t' || c = '\r' then go (i + 1)
      else if c = '/' && i + 1 < n && src.[i + 1] = '/' then
        go (skip_while (fun c -> c <> '\n') src i)
      else if c = '.' && i + 1 < n && src.[i + 1] = '.' then emit DOTDOT (i + 2)
      else if c = '"' then begin
        let buf = Buffer.create 16 in
        let rec str j =
          if j >= n then error "unterminated string"
          else
            match src.[j] with
            | '"' -> emit (STRING (Buffer.contents buf)) (j + 1)
            | '\\' when j + 1 < n && src.[j + 1] <> '\n' ->
              Buffer.add_char buf
                (match src.[j + 1] with 'n' -> '\n' | 't' -> '\t' | c -> c);
              str (j + 2)
            | '\n' -> error "newline in string literal"
            | c ->
              Buffer.add_char buf c;
              str (j + 1)
        in
        str (i + 1)
      end
      else if is_digit c then begin
        (* a number glued to letters ("2x", "1e") is one bad number *)
        let k = number_end src i in
        let j = skip_while is_ident_char src k in
        let text = String.sub src i (j - i) in
        match (int_of_string_opt text, float_of_string_opt text) with
        | Some v, _ when j = k -> emit (INT v) j
        | None, Some f when j = k -> emit (FLOAT f) j
        | _ -> error (Printf.sprintf "bad number %S" text)
      end
      else if is_ident_char c then
        let j = skip_while is_ident_char src i in
        emit (IDENT (String.sub src i (j - i))) j
      else
        match c with
        | '{' -> emit LBRACE (i + 1)
        | '}' -> emit RBRACE (i + 1)
        | '(' -> emit LPAREN (i + 1)
        | ')' -> emit RPAREN (i + 1)
        | '[' -> emit LBRACKET (i + 1)
        | ']' -> emit RBRACKET (i + 1)
        | '=' -> emit EQUALS (i + 1)
        | ':' -> emit COLON (i + 1)
        | ',' -> emit COMMA (i + 1)
        | '-' -> emit MINUS (i + 1)
        | '*' -> emit STAR (i + 1)
        | _ -> error (Printf.sprintf "unexpected character %C" c)
  in
  go 0

(* the list always ends with its EOF, which is never consumed *)
type t = { mutable toks : (token * int) list; error : string -> Seed_error.t }

let of_string ~error src =
  let* toks = lex ~error src in
  Ok { toks; error }

let peek st = match st.toks with (t, _) :: _ -> t | [] -> EOF
let advance st = match st.toks with [] | [ _ ] -> () | _ :: rest -> st.toks <- rest

let fail_here st msg =
  let line = match st.toks with (_, line) :: _ -> line | [] -> 0 in
  fail (st.error (Printf.sprintf "line %d: %s" line msg))

let unexpected st what =
  fail_here st (Printf.sprintf "expected %s, found %s" what (token_name (peek st)))

let expect st tok what =
  if peek st = tok then begin
    advance st;
    Ok ()
  end
  else unexpected st what

let ident st what =
  match peek st with
  | IDENT s ->
    advance st;
    Ok s
  | _ -> unexpected st what

let name st what =
  match peek st with
  | IDENT s | STRING s ->
    advance st;
    Ok s
  | _ -> unexpected st what

let int st what =
  match peek st with
  | INT n ->
    advance st;
    Ok n
  | _ -> unexpected st what

let eat_keyword st kw = peek st = IDENT kw && (advance st; true)

let paren_list st what item =
  let* () = expect st LPAREN what in
  let rec go acc =
    let* x = item st in
    if peek st = COMMA then begin
      advance st;
      go (x :: acc)
    end
    else
      let* () = expect st RPAREN "')'" in
      Ok (List.rev (x :: acc))
  in
  go []
