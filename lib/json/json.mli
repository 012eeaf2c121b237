(** The repository's one JSON layer: a value type, a printer and a strict
    parser.  Traces, verifier JSON/SARIF and the bench report are built as
    values and printed here; trace validation and the bench baseline check
    read files back through {!parse}.

    Strings are byte strings: the printer escapes quote, backslash and
    control characters and passes every other byte through, so {!parse}
    returns exactly the bytes printed.  [\u] escapes decode to UTF-8. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** One fixed layout, no trailing newline: members print as ["key": value]
    separated by [", "]; a non-empty array of objects puts one element per
    line (trace events, bench arms), everything else stays on one line.
    Numbers take the shortest form that parses back to the same float;
    non-finite floats print as [null]. *)
val to_string : t -> string

(** Strict RFC 8259: one value, optionally surrounded by whitespace.  The
    error names the byte offset. *)
val parse : string -> (t, string) result

(** The value of [key] in an object, [Null] when absent or not an object. *)
val member : string -> t -> t

val to_list : t -> t list option
val to_float : t -> float option
val to_string_opt : t -> string option
