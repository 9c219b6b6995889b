type severity = Error | Warning | Note

type t = {
  code : string;
  severity : severity;
  message : string;
  fix_hint : string option;
}

let make severity ?hint code message = { code; severity; message; fix_hint = hint }
let errorf ?hint code fmt = Printf.ksprintf (make Error ?hint code) fmt
let warningf ?hint code fmt = Printf.ksprintf (make Warning ?hint code) fmt
let notef ?hint code fmt = Printf.ksprintf (make Note ?hint code) fmt

let prefixed pass d = { d with message = Printf.sprintf "(%s) %s" pass d.message }

let is_error d = d.severity = Error
let errors ds = List.filter is_error ds
let has_errors ds = List.exists is_error ds

let rank = function Error -> 0 | Warning -> 1 | Note -> 2
let by_severity ds = List.stable_sort (fun a b -> compare (rank a.severity) (rank b.severity)) ds

let canonical ds =
  List.sort_uniq
    (fun a b ->
      let c = compare a.code b.code in
      if c <> 0 then c
      else
        let c = compare a.message b.message in
        if c <> 0 then c
        else
          let c = compare (rank a.severity) (rank b.severity) in
          if c <> 0 then c else compare a.fix_hint b.fix_hint)
    ds

let severity_label = function Error -> "error" | Warning -> "warning" | Note -> "note"

let pp ppf d =
  Format.fprintf ppf "%s[%s]: %s" (severity_label d.severity) d.code d.message;
  match d.fix_hint with
  | None -> ()
  | Some hint -> Format.fprintf ppf "@,  hint: %s" hint

let pp_list ppf ds =
  Format.pp_open_vbox ppf 0;
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp ppf ds;
  Format.pp_close_box ppf ()
