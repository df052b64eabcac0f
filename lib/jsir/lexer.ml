(** Hand-rolled lexer for MiniJS. *)

type token =
  | NUMBER of float
  | STRING of string
  | IDENT of string
  | KEYWORD of string
  | PUNCT of string
  | EOF

exception Error of string * Ast.pos

type t = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of beginning of current line *)
}

let create src = { src; pos = 0; line = 1; bol = 0 }

let current_pos t : Ast.pos = { line = t.line; col = t.pos - t.bol + 1 }

let error t msg = raise (Error (msg, current_pos t))

(* Characters are read without an option per character: [at_end] is the
   end test, and [peek]/[peek2]/[peek3] return '\000' past the end.  No
   test below accepts '\000', so past-the-end behaves like a character
   that matches nothing, and a literal NUL in the source still reaches
   the "unexpected character" error. *)

let[@inline] at_end t = t.pos >= String.length t.src

let[@inline] char_at t i = if i < String.length t.src then String.unsafe_get t.src i else '\000'

let[@inline] peek t = char_at t t.pos
let[@inline] peek2 t = char_at t (t.pos + 1)
let[@inline] peek3 t = char_at t (t.pos + 2)

let advance t =
  if peek t = '\n' then begin
    t.line <- t.line + 1;
    t.bol <- t.pos + 1
  end;
  t.pos <- t.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'
let is_ident_char c = is_ident_start c || is_digit c
let is_hex_digit c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let rec skip_trivia t =
  match peek t with
  | ' ' | '\t' | '\r' | '\n' ->
    advance t;
    skip_trivia t
  | '/' when peek2 t = '/' ->
    while (not (at_end t)) && peek t <> '\n' do
      advance t
    done;
    skip_trivia t
  | '/' when peek2 t = '*' ->
    advance t;
    advance t;
    let rec loop () =
      if at_end t then error t "unterminated block comment"
      else if peek t = '*' && peek2 t = '/' then begin
        advance t;
        advance t
      end
      else begin
        advance t;
        loop ()
      end
    in
    loop ();
    skip_trivia t
  | _ -> ()

let skip_digits t =
  while is_digit (peek t) do
    advance t
  done

let lex_number t =
  let start = t.pos in
  if peek t = '0' && (peek2 t = 'x' || peek2 t = 'X') then begin
    advance t;
    advance t;
    let hstart = t.pos in
    while is_hex_digit (peek t) do
      advance t
    done;
    if t.pos = hstart then error t "bad hex literal";
    let digits = String.sub t.src hstart (t.pos - hstart) in
    NUMBER (float_of_string ("0x" ^ digits))
  end
  else begin
    skip_digits t;
    (* Fraction: only when the dot is followed by a digit (so `1.foo` lexes
       as NUMBER DOT IDENT, which MiniJS does not need but keeps errors sane). *)
    if peek t = '.' && is_digit (peek2 t) then begin
      advance t;
      skip_digits t
    end;
    (match peek t with
    | 'e' | 'E' ->
      advance t;
      (match peek t with '+' | '-' -> advance t | _ -> ());
      let estart = t.pos in
      skip_digits t;
      if t.pos = estart then error t "bad exponent"
    | _ -> ());
    NUMBER (float_of_string (String.sub t.src start (t.pos - start)))
  end

let lex_string t quote =
  advance t;
  let buf = Buffer.create 16 in
  let rec loop () =
    if at_end t then error t "unterminated string literal";
    match peek t with
    | c when c = quote -> advance t
    | '\\' ->
      advance t;
      if at_end t then error t "unterminated escape";
      let c = peek t in
      advance t;
      let decoded =
        match c with
        | 'n' -> '\n'
        | 't' -> '\t'
        | 'r' -> '\r'
        | '0' -> '\000'
        | '\\' -> '\\'
        | '\'' -> '\''
        | '"' -> '"'
        | c -> c
      in
      Buffer.add_char buf decoded;
      loop ()
    | c ->
      advance t;
      Buffer.add_char buf c;
      loop ()
  in
  loop ();
  STRING (Buffer.contents buf)

let keyword_or_ident = function
  | "var" | "function" | "if" | "else" | "while" | "do" | "for" | "return" | "break"
  | "continue" | "true" | "false" | "null" | "undefined" | "new" | "this" as s ->
    KEYWORD s
  | s -> IDENT s

let lex_ident t =
  let start = t.pos in
  while is_ident_char (peek t) do
    advance t
  done;
  keyword_or_ident (String.sub t.src start (t.pos - start))

(* Longest-match punctuation by character dispatch; "" when the next
   character starts no punctuator.  >>>= would be 4 chars; MiniJS does
   not support it. *)
let punct t =
  let c2 = peek2 t in
  match peek t with
  | '=' -> if c2 = '=' then if peek3 t = '=' then "===" else "==" else "="
  | '!' -> if c2 = '=' then if peek3 t = '=' then "!==" else "!=" else "!"
  | '>' ->
    if c2 = '>' then
      match peek3 t with '>' -> ">>>" | '=' -> ">>=" | _ -> ">>"
    else if c2 = '=' then ">="
    else ">"
  | '<' ->
    if c2 = '<' then if peek3 t = '=' then "<<=" else "<<"
    else if c2 = '=' then "<="
    else "<"
  | '&' -> if c2 = '&' then "&&" else if c2 = '=' then "&=" else "&"
  | '|' -> if c2 = '|' then "||" else if c2 = '=' then "|=" else "|"
  | '+' -> if c2 = '+' then "++" else if c2 = '=' then "+=" else "+"
  | '-' -> if c2 = '-' then "--" else if c2 = '=' then "-=" else "-"
  | '*' -> if c2 = '=' then "*=" else "*"
  | '/' -> if c2 = '=' then "/=" else "/"
  | '%' -> if c2 = '=' then "%=" else "%"
  | '^' -> if c2 = '=' then "^=" else "^"
  | '~' -> "~"
  | '?' -> "?"
  | ':' -> ":"
  | ';' -> ";"
  | ',' -> ","
  | '.' -> "."
  | '(' -> "("
  | ')' -> ")"
  | '[' -> "["
  | ']' -> "]"
  | '{' -> "{"
  | '}' -> "}"
  | _ -> ""

let next t : token * Ast.pos =
  skip_trivia t;
  let pos = current_pos t in
  if at_end t then (EOF, pos)
  else
    match peek t with
    | c when is_digit c -> (lex_number t, pos)
    | ('"' | '\'') as q -> (lex_string t q, pos)
    | c when is_ident_start c -> (lex_ident t, pos)
    | c -> (
      match punct t with
      | "" -> error t (Printf.sprintf "unexpected character %C" c)
      | s ->
        (* No punctuator spans a newline. *)
        t.pos <- t.pos + String.length s;
        (PUNCT s, pos))

(** Lex an entire source string to a token list (with positions). *)
let tokenize src =
  let t = create src in
  let rec loop acc =
    match next t with
    | (EOF, _) as tok -> List.rev (tok :: acc)
    | tok -> loop (tok :: acc)
  in
  loop []

let token_to_string = function
  | NUMBER f -> Printf.sprintf "NUMBER(%g)" f
  | STRING s -> Printf.sprintf "STRING(%S)" s
  | IDENT s -> Printf.sprintf "IDENT(%s)" s
  | KEYWORD s -> Printf.sprintf "KEYWORD(%s)" s
  | PUNCT s -> Printf.sprintf "PUNCT(%s)" s
  | EOF -> "EOF"
