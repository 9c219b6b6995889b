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

let token_to_string = function
  | INT n -> string_of_int n
  | FLOAT f -> string_of_float f
  | IDENT s -> s
  | KW_VOID -> "void"
  | KW_FLOAT -> "float"
  | KW_INT -> "int"
  | KW_FOR -> "for"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | SEMI -> ";"
  | COMMA -> ","
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | ASSIGN -> "="
  | PLUS_ASSIGN -> "+="
  | MINUS_ASSIGN -> "-="
  | STAR_ASSIGN -> "*="
  | PLUS_PLUS -> "++"
  | LT -> "<"
  | EOF -> "<eof>"

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

let tokenize src =
  let n = String.length src in
  let line = ref 1 in
  let pos = ref 0 in
  let fail message = raise (Lex_error { line = !line; message }) in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let peek2 () = if !pos + 1 < n then Some src.[!pos + 1] else None in
  let advance () =
    if !pos < n && src.[!pos] = '\n' then incr line;
    incr pos
  in
  let tokens = ref [] in
  let emit tok = tokens := (tok, !line) :: !tokens in
  let rec skip_block_comment () =
    match (peek (), peek2 ()) with
    | Some '*', Some '/' ->
        advance ();
        advance ()
    | Some _, _ ->
        advance ();
        skip_block_comment ()
    | None, _ -> fail "unterminated comment"
  in
  let lex_number () =
    let start = !pos in
    while (match peek () with Some c -> is_digit c | None -> false) do
      advance ()
    done;
    let is_float =
      match peek () with
      | Some '.' ->
          advance ();
          while (match peek () with Some c -> is_digit c | None -> false) do
            advance ()
          done;
          true
      | Some _ | None -> false
    in
    let is_float =
      match peek () with
      | Some ('e' | 'E') ->
          advance ();
          (match peek () with Some ('+' | '-') -> advance () | Some _ | None -> ());
          while (match peek () with Some c -> is_digit c | None -> false) do
            advance ()
          done;
          true
      | Some _ | None -> is_float
    in
    let text = String.sub src start (!pos - start) in
    (* trailing float suffix as in 0.5f *)
    let text, is_float =
      match peek () with
      | Some ('f' | 'F') ->
          advance ();
          (text, true)
      | Some _ | None -> (text, is_float)
    in
    if is_float then
      match float_of_string_opt text with
      | Some f -> emit (FLOAT f)
      | None -> fail (Printf.sprintf "malformed float literal %S" text)
    else
      match int_of_string_opt text with
      | Some v -> emit (INT v)
      | None -> fail "integer literal out of range"
  in
  let lex_ident () =
    let start = !pos in
    while (match peek () with Some c -> is_ident_char c | None -> false) do
      advance ()
    done;
    match String.sub src start (!pos - start) with
    | "void" -> emit KW_VOID
    | "float" -> emit KW_FLOAT
    | "int" -> emit KW_INT
    | "for" -> emit KW_FOR
    | ident -> emit (IDENT ident)
  in
  let rec loop () =
    match peek () with
    | None -> ()
    | Some c ->
        (match c with
        | ' ' | '\t' | '\r' | '\n' -> advance ()
        | '/' -> (
            match peek2 () with
            | Some '/' ->
                while (match peek () with Some c -> c <> '\n' | None -> false) do
                  advance ()
                done
            | Some '*' ->
                advance ();
                advance ();
                skip_block_comment ()
            | Some _ | None ->
                advance ();
                emit SLASH)
        | '0' .. '9' -> lex_number ()
        | c when is_ident_start c -> lex_ident ()
        | '(' -> advance (); emit LPAREN
        | ')' -> advance (); emit RPAREN
        | '{' -> advance (); emit LBRACE
        | '}' -> advance (); emit RBRACE
        | '[' -> advance (); emit LBRACKET
        | ']' -> advance (); emit RBRACKET
        | ';' -> advance (); emit SEMI
        | ',' -> advance (); emit COMMA
        | '<' -> advance (); emit LT
        | '+' -> (
            advance ();
            match peek () with
            | Some '=' -> advance (); emit PLUS_ASSIGN
            | Some '+' -> advance (); emit PLUS_PLUS
            | Some _ | None -> emit PLUS)
        | '-' -> (
            advance ();
            match peek () with
            | Some '=' -> advance (); emit MINUS_ASSIGN
            | Some _ | None -> emit MINUS)
        | '*' -> (
            advance ();
            match peek () with
            | Some '=' -> advance (); emit STAR_ASSIGN
            | Some _ | None -> emit STAR)
        | '=' -> advance (); emit ASSIGN
        | c -> fail (Printf.sprintf "unexpected character %C" c));
        loop ()
  in
  loop ();
  emit EOF;
  List.rev !tokens
