type t = Mini | Small | Medium | Large

let n = function Mini -> 16 | Small -> 32 | Medium -> 64 | Large -> 96

let to_string = function
  | Mini -> "mini"
  | Small -> "small"
  | Medium -> "medium"
  | Large -> "large"

let of_string = function
  | "mini" -> Ok Mini
  | "small" -> Ok Small
  | "medium" -> Ok Medium
  | "large" -> Ok Large
  | other -> Error (Printf.sprintf "unknown dataset %S (mini|small|medium|large)" other)
