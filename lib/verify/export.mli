(** Machine-readable renderings of verifier output.

    JSON in two dialects, printed by the [Json] library: a compact
    per-target format, and SARIF 2.1.0 with the stable diagnostic codes as
    rule ids — [gensor_cli verify]/[analyze] serve both behind [--format].
    Documents are valid JSON for any diagnostic text. *)

(** One analysis target: a schedule (sweep cell, model layer, ...) with
    its diagnostics and, when certification ran, the rendered certificate
    region. *)
type item = {
  target : string;
  diags : Diagnostic.t list;
  region : string option;
}

val item : ?region:string -> target:string -> Diagnostic.t list -> item

(** Compact JSON: per-target diagnostics plus severity tallies, newline
    terminated. *)
val json : item list -> string

(** SARIF 2.1.0: one run, diagnostic codes as rule ids, targets as logical
    locations, newline terminated. *)
val sarif : item list -> string
