(* Machine-readable renderings of verifier output: a compact JSON format
   and SARIF 2.1.0, both built as [Json.t] values and printed by the one
   JSON printer, whose escaper makes the documents valid for any
   diagnostic text.

   SARIF notes:
   - diagnostic codes are the SARIF rule ids; the driver's [rules] array
     lists each code that appears, once, with its pass as the description;
   - severities map Error -> "error", Warning -> "warning", Info -> "note";
   - targets have no file/line identity (they are schedules, not source),
     so results carry [logicalLocations] with the analysis target and the
     diagnostic's own locus as the fully qualified name. *)

type item = {
  target : string;
  diags : Diagnostic.t list;
  region : string option;  (* rendered certificate region, when certified *)
}

let item ?region ~target diags = { target; diags; region }

let severity_counts diags =
  ( Diagnostic.count Diagnostic.Error diags,
    Diagnostic.count Diagnostic.Warning diags,
    Diagnostic.count Diagnostic.Info diags )

let int n = Json.Num (float_of_int n)
let text s = Json.(Obj [ ("text", Str s) ])

(* ---------- compact JSON ---------- *)

let diag_json (d : Diagnostic.t) =
  Json.(
    Obj
      [ ("code", Str d.code);
        ("severity", Str (Diagnostic.severity_to_string d.severity));
        ("pass", Str (Diagnostic.pass_to_string d.pass)); ("loc", Str d.loc);
        ("message", Str d.message) ])

let item_json it =
  let errors, warnings, infos = severity_counts it.diags in
  Json.(
    Obj
      [ ("target", Str it.target);
        ("region", Option.fold ~none:Null ~some:(fun r -> Str r) it.region);
        ("errors", int errors); ("warnings", int warnings); ("infos", int infos);
        ("diagnostics", Arr (List.map diag_json (Diagnostic.by_severity it.diags))) ])

let json items =
  let errors, warnings, infos =
    severity_counts (List.concat_map (fun it -> it.diags) items)
  in
  Json.(
    to_string
      (Obj
         [ ("tool", Str "gensor-verify"); ("items", Arr (List.map item_json items));
           ("summary",
             Obj
               [ ("targets", int (List.length items)); ("errors", int errors);
                 ("warnings", int warnings); ("infos", int infos) ]) ]))
  ^ "\n"

(* ---------- SARIF 2.1.0 ---------- *)

let sarif_level = function
  | Diagnostic.Error -> "error"
  | Diagnostic.Warning -> "warning"
  | Diagnostic.Info -> "note"

(* One rule per distinct code, in first-appearance order. *)
let rules items =
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun it ->
      List.filter_map
        (fun (d : Diagnostic.t) ->
          if Hashtbl.mem seen d.Diagnostic.code then None
          else begin
            Hashtbl.add seen d.Diagnostic.code ();
            let desc =
              Fmt.str "gensor verifier %s-pass diagnostic"
                (Diagnostic.pass_to_string d.pass)
            in
            Some Json.(Obj [ ("id", Str d.code); ("shortDescription", text desc) ])
          end)
        it.diags)
    items

let sarif_result ~target (d : Diagnostic.t) =
  let location =
    Json.(
      Obj
        [ ("fullyQualifiedName", Str (target ^ ": " ^ d.loc));
          ("kind", Str "member") ])
  in
  Json.(
    Obj
      [ ("ruleId", Str d.code); ("level", Str (sarif_level d.severity));
        ("message", text d.message);
        ("locations", Arr [ Obj [ ("logicalLocations", Arr [ location ]) ] ]) ])

let sarif items =
  let results =
    List.concat_map
      (fun it ->
        List.map (sarif_result ~target:it.target) (Diagnostic.by_severity it.diags))
      items
  in
  let run =
    Json.(
      Obj
        [ ("tool",
            Obj
              [ ("driver",
                  Obj
                    [ ("name", Str "gensor-verify"); ("version", Str "1.0");
                      ("rules", Arr (rules items)) ]) ]);
          ("results", Arr results) ])
  in
  Json.(
    to_string
      (Obj
         [ ("$schema", Str "https://json.schemastore.org/sarif-2.1.0.json");
           ("version", Str "2.1.0");
           ("runs", Arr [ run ]) ]))
  ^ "\n"
