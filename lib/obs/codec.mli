(** The one text codec behind every machine-readable output: JSON values
    and their parser, the JSON string escaper, the RFC 4180 CSV field
    quoter, and the substring search the label classifiers share.

    Renderers ({!Export}, {!Stat}, the core report tables and the lint
    reports) escape through here, and the two JSON readers
    ([stat --diff] and lint's [--baseline]) decode {!parse_json}'s
    value, so an escaping rule is fixed in exactly one place. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val parse_json : string -> (json, string) result
(** A strict JSON parser (no dependency on an external JSON library).
    Never raises: malformed input, a bad [\u] escape and nesting deeper
    than 512 levels are all [Error]s naming the byte offset. [\u]
    escapes decode to UTF-8 (surrogate pairs are not combined). *)

val escape_json : string -> string
(** The body of a JSON string literal (no surrounding quotes): escapes
    ["\""], ["\\"], newline, tab and carriage return by name and every
    other control character as [\u00XX]; other bytes pass through, so
    {!parse_json} returns the original string. *)

val csv_field : string -> string
(** RFC 4180: a field containing a comma, quote, LF or CR is quoted,
    with embedded quotes doubled; any other field is returned as is. *)

val contains : string -> string -> bool
(** [contains haystack needle]: whether [needle] occurs in [haystack]
    (the empty needle always does). *)
