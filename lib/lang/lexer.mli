(** Hand-written lexer for the mini-C front end. *)

type token =
  | INT of int
  | FLOAT of float
  | IDENT of string
  | KW_VOID
  | KW_FLOAT
  | KW_INT
  | KW_FOR
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | SEMI
  | COMMA
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | ASSIGN
  | PLUS_ASSIGN
  | MINUS_ASSIGN
  | STAR_ASSIGN
  | PLUS_PLUS
  | LT
  | EOF

exception Lex_error of { line : int; message : string }

val tokenize : string -> (token * int) list
(** Token stream with 1-based line numbers; the last element is
    [(EOF, line)]. Supports [//] and [/* */] comments. Raises
    {!Lex_error} on an unexpected character, an unterminated comment,
    a malformed float literal or an integer literal outside OCaml's
    [int] range. *)

val token_to_string : token -> string
