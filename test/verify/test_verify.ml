open Sched

let hw = Hardware.Presets.rtx4090
let check_bool = Alcotest.(check bool)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let gemm_etir ?(m = 256) ?(n = 256) ?(k = 256) () =
  Etir.create (Ops.Op.compute (Ops.Matmul.gemm ~m ~n ~k ()))

(* The hand-checkable legal GEMM configuration of the costmodel tests:
   block 32x16, thread 4x4, reduce chunk 8 unrolled by 2 — every tile
   divides its covering domain. *)
let configured () =
  let e = gemm_etir () in
  let e = Etir.with_stile e ~level:1 ~dim:0 32 in
  let e = Etir.with_stile e ~level:1 ~dim:1 16 in
  let e = Etir.with_stile e ~level:0 ~dim:0 4 in
  let e = Etir.with_stile e ~level:0 ~dim:1 4 in
  let e = Etir.with_rtile e ~level:1 ~dim:0 8 in
  let e = Etir.with_rtile e ~level:0 ~dim:0 2 in
  Etir.with_cur_level e 0

let errors diags = Verify.Diagnostic.errors diags
let error_texts diags =
  List.map
    (fun d -> Fmt.str "%a" Verify.Diagnostic.pp d)
    (errors diags)

(* ---------- positive ---------- *)

let test_clean_on_legal_schedule () =
  let diags = Verify.run (configured ()) ~hw in
  Alcotest.(check int) "no diagnostics at all" 0 (List.length diags)

let test_clean_on_pipeline_outputs () =
  (* Every method's shipped schedule for a Table-IV workload verifies. *)
  let entry = Option.get (Workloads.Table_iv.find "M1") in
  let op = entry.Workloads.Table_iv.op () in
  List.iter
    (fun method_ ->
      let output = method_.Pipeline.Methods.compile ~hw op in
      let errs = errors (Verify.run output.Pipeline.Methods.etir ~hw) in
      if errs <> [] then
        Alcotest.failf "%s produced errors: %a" method_.Pipeline.Methods.name
          Verify.Diagnostic.pp_report errs)
    [ Pipeline.Methods.roller (); Pipeline.Methods.ansor ~n_trials:200 () ]

let test_debug_assertion_passes () =
  (* The pipeline debug gate accepts legal compilations end to end. *)
  let entry = Option.get (Workloads.Table_iv.find "V1") in
  let op = entry.Workloads.Table_iv.op () in
  Pipeline.Methods.debug_verify := true;
  Fun.protect
    ~finally:(fun () -> Pipeline.Methods.debug_verify := false)
    (fun () ->
      let method_ = Pipeline.Methods.roller () in
      ignore (method_.Pipeline.Methods.compile ~hw op))

(* ---------- soundness property (issue: verifier on known-legal states) ----------

   For seeded random action sequences: a state that passes the structural
   invariants and the memory check, and whose tiles all divide their
   covering domains, must verify with no Error-severity diagnostics. *)

let dividing e =
  let ok = ref true in
  let sext = Etir.spatial_extents e and rext = Etir.reduce_extents e in
  for i = 0 to Etir.num_spatial e - 1 do
    let t1 = Etir.stile_eff e ~level:1 ~dim:i in
    let t0 = Etir.stile e ~level:0 ~dim:i in
    let v = Etir.vthread e ~dim:i in
    if sext.(i) mod t1 <> 0 || t1 mod t0 <> 0 || t0 mod v <> 0 then ok := false
  done;
  for j = 0 to Etir.num_reduce e - 1 do
    let r1 = Etir.rtile_eff e ~level:1 ~dim:j in
    let r0 = Etir.rtile_eff e ~level:0 ~dim:j in
    if rext.(j) mod r1 <> 0 || r1 mod r0 <> 0 then ok := false
  done;
  !ok

let prop_sound_on_legal_states =
  QCheck.Test.make ~count:200
    ~name:"validate && mem-ok && dividing => no Error diagnostics"
    QCheck.(make Gen.(int_range 0 100_000))
    (fun seed ->
      let rng = Rng.create ~seed in
      let e = ref (gemm_etir ()) in
      for _ = 1 to 25 do
        match Action.successors !e with
        | [] -> ()
        | succs -> e := snd (Rng.choice rng succs)
      done;
      let legal =
        Result.is_ok (Etir.validate !e)
        && Costmodel.Mem_check.ok !e ~hw
        && dividing !e
      in
      (not legal) || errors (Verify.run !e ~hw) = [])

(* ---------- negative fixture 1: out-of-bounds tile ---------- *)

let test_oob_tile_fixture () =
  (* A 384-wide block tile on a 256-wide axis: the bounds pass must error
     and name both the broken axis and the escaping accesses. *)
  let bad = Etir.with_stile (configured ()) ~level:1 ~dim:0 384 in
  let diags = Verify.run bad ~hw in
  let errs = errors diags in
  check_bool "at least one error" true (errs <> []);
  check_bool "every error is from the bounds pass" true
    (List.for_all (fun d -> d.Verify.Diagnostic.pass = Verify.Diagnostic.Bounds) errs);
  let texts = error_texts diags in
  check_bool "pinpoints the broken axis" true
    (List.exists
       (fun t -> contains t "axis i" && contains t "exceeds the axis extent")
       texts);
  check_bool "reports the out-of-bounds read with its region" true
    (List.exists
       (fun t ->
         contains t "read of A" && contains t "escape the declared extent")
       texts);
  check_bool "reports the out-of-bounds output write" true
    (List.exists (fun t -> contains t "write of C") texts)

(* ---------- negative fixture 2: missing __syncthreads ---------- *)

let strip_first_sync kernel =
  let seen = ref false in
  String.concat "\n"
    (List.filter
       (fun line ->
         if (not !seen) && contains line "__syncthreads" then begin
           seen := true;
           false
         end
         else true)
       (String.split_on_char '\n' kernel))

let test_missing_sync_fixture () =
  (* Dropping the barrier between cooperative staging and the reads must
     surface as a race-pass error at the read line. *)
  let e = configured () in
  let kernel = strip_first_sync (Codegen.Cuda.emit e) in
  let host = Codegen.Cuda.emit_host e in
  let diags = Verify.run_text e ~hw ~kernel ~host in
  let errs = errors diags in
  check_bool "at least one error" true (errs <> []);
  check_bool "every error is from the race pass" true
    (List.for_all (fun d -> d.Verify.Diagnostic.pass = Verify.Diagnostic.Race) errs);
  let texts = error_texts diags in
  check_bool "identifies the read-after-write race on the staged slices" true
    (List.exists
       (fun t ->
         contains t "read-after-write" && contains t "smem_A"
         && contains t "kernel line")
       texts)

(* ---------- further mutations ---------- *)

let replace ~sub ~by s =
  let n = String.length sub and h = String.length s in
  let rec go i =
    if i + n > h then s
    else if String.sub s i n = sub then
      String.sub s 0 i ^ by ^ String.sub s (i + n) (h - i - n)
    else go (i + 1)
  in
  go 0

let test_divergent_barrier () =
  let e = configured () in
  let kernel =
    replace ~sub:"    __syncthreads();"
      ~by:"    if (threadIdx.x < 17) __syncthreads();"
      (Codegen.Cuda.emit e)
  in
  let diags =
    Verify.run_text e ~hw ~kernel ~host:(Codegen.Cuda.emit_host e)
  in
  check_bool "barrier divergence is an error" true
    (List.exists
       (fun t -> contains t "barrier divergence")
       (error_texts diags))

let test_lint_catches_shrunk_smem () =
  (* The staged A slice is 32x8 = 256 floats; shrinking the declaration
     behind the footprint model's back must fail the lint pass. *)
  let e = configured () in
  let kernel =
    replace ~sub:"smem_A[256]" ~by:"smem_A[128]" (Codegen.Cuda.emit e)
  in
  let diags =
    Verify.run_text e ~hw ~kernel ~host:(Codegen.Cuda.emit_host e)
  in
  check_bool "smem extent mismatch is a lint error" true
    (List.exists
       (fun d ->
         d.Verify.Diagnostic.pass = Verify.Diagnostic.Lint
         && contains d.Verify.Diagnostic.message "128")
       (errors diags))

let test_lint_catches_wrong_launch () =
  let e = configured () in
  let host =
    replace ~sub:"dim3 block(4, 8, 1);" ~by:"dim3 block(4, 4, 1);"
      (Codegen.Cuda.emit_host e)
  in
  let diags =
    Verify.run_text e ~hw ~kernel:(Codegen.Cuda.emit e) ~host
  in
  check_bool "launch-shape mismatch is a lint error" true
    (List.exists
       (fun d ->
         d.Verify.Diagnostic.pass = Verify.Diagnostic.Lint
         && contains d.Verify.Diagnostic.message "block")
       (errors diags))

let test_nondividing_warns_not_errors () =
  (* 48 does not divide 256: a guard obligation, not an error. *)
  let e = Etir.with_stile (configured ()) ~level:1 ~dim:0 48 in
  let diags = Verify.run e ~hw in
  check_bool "no errors" true (errors diags = []);
  check_bool "warns about the non-dividing block tile" true
    (List.exists
       (fun d ->
         d.Verify.Diagnostic.severity = Verify.Diagnostic.Warning
         && contains d.Verify.Diagnostic.message "does not divide")
       diags)

(* ---------- stable diagnostic codes (satellite: coded fixtures) ---------- *)

let test_divergent_barrier_code () =
  (* The barrier-divergence fixture must carry its stable code GSR-R01. *)
  let e = configured () in
  let kernel =
    replace ~sub:"    __syncthreads();"
      ~by:"    if (threadIdx.x < 17) __syncthreads();"
      (Codegen.Cuda.emit e)
  in
  let diags =
    Verify.run_text e ~hw ~kernel ~host:(Codegen.Cuda.emit_host e)
  in
  check_bool "divergence error carries GSR-R01" true
    (List.exists (fun d -> d.Verify.Diagnostic.code = "GSR-R01") (errors diags))

let test_nondividing_code () =
  (* The non-dividing block tile warning must carry GSR-B04, and the plain
     text rendering must stay free of codes (byte-stable report format). *)
  let e = Etir.with_stile (configured ()) ~level:1 ~dim:0 48 in
  let diags = Verify.run e ~hw in
  check_bool "non-dividing tile warns with GSR-B04" true
    (List.exists
       (fun d ->
         d.Verify.Diagnostic.code = "GSR-B04"
         && d.Verify.Diagnostic.severity = Verify.Diagnostic.Warning)
       diags);
  check_bool "every diagnostic carries a GSR- code" true
    (List.for_all
       (fun d ->
         String.length d.Verify.Diagnostic.code >= 6
         && String.sub d.Verify.Diagnostic.code 0 4 = "GSR-")
       diags);
  List.iter
    (fun d ->
      let plain = Fmt.str "%a" Verify.Diagnostic.pp d in
      check_bool "pp omits the code" false (contains plain "GSR-");
      let coded = Fmt.str "%a" Verify.Diagnostic.pp_coded d in
      check_bool "pp_coded leads with the code" true
        (String.length coded > 4 && String.sub coded 0 4 = "GSR-"))
    diags

(* ---------- certificates ---------- *)

let test_cert_on_configured () =
  let outcome = Verify.Cert.certify ~hw (configured ()) in
  match outcome.Verify.Cert.cert with
  | None ->
    Alcotest.failf "certification refused: %a" Verify.Diagnostic.pp_report
      outcome.Verify.Cert.diags
  | Some cert ->
    let at i j k = [ ("i", i); ("j", j); ("k", k) ] in
    check_bool "witness admits itself" true
      (Result.is_ok (Verify.Cert.admits cert (at 256 256 256)));
    check_bool "smaller in-region shape admitted" true
      (Result.is_ok (Verify.Cert.admits cert (at 64 64 64)));
    check_bool "below the clamp-free floor is rejected" true
      (Result.is_error (Verify.Cert.admits cert (at 16 256 256)));
    check_bool "above the declared range is rejected" true
      (Result.is_error (Verify.Cert.admits cert (at 1024 256 256)));
    check_bool "guards hold on tile multiples" true
      (Result.is_ok (Verify.Cert.guards_hold cert (at 64 64 64)));
    check_bool "guards fail off-multiple" true
      (Result.is_error (Verify.Cert.guards_hold cert (at 65 64 64)))

let test_cert_refuses_broken_witness () =
  (* A witness the concrete verifier rejects must not certify; the refusal
     carries GSR-C02 plus the underlying errors. *)
  let bad = Etir.with_stile (configured ()) ~level:1 ~dim:0 384 in
  let outcome = Verify.Cert.certify ~hw bad in
  check_bool "no certificate" true (outcome.Verify.Cert.cert = None);
  check_bool "refusal carries GSR-C02" true
    (List.exists
       (fun d -> d.Verify.Diagnostic.code = "GSR-C02")
       outcome.Verify.Cert.diags)

let test_cert_rejects_structure_change () =
  let outcome = Verify.Cert.certify ~hw (configured ()) in
  let cert = Option.get outcome.Verify.Cert.cert in
  let gemv = Ops.Op.compute (Ops.Matmul.gemv ~m:256 ~n:256 ()) in
  check_bool "different axis structure is rejected" true
    (Result.is_error (Verify.Cert.admits_compute cert gemv))

(* The acceptance property: for random schedules and random shapes *inside*
   a certificate's region, the concrete verifier on the retargeted schedule
   reports no errors. *)
let prop_cert_sound =
  QCheck.Test.make ~count:60
    ~name:"shapes admitted by a certificate verify error-free"
    QCheck.(
      quad
        (make Gen.(int_range 0 100_000))
        (1 -- 512) (1 -- 512) (1 -- 512))
    (fun (seed, m, n, k) ->
      let rng = Rng.create ~seed in
      let e = ref (gemm_etir ()) in
      for _ = 1 to 25 do
        match Action.successors !e with
        | [] -> ()
        | succs -> e := snd (Rng.choice rng succs)
      done;
      if
        not
          (Result.is_ok (Etir.validate !e) && Costmodel.Mem_check.ok !e ~hw)
      then true
      else
        let outcome = Verify.Cert.certify ~hw !e in
        match outcome.Verify.Cert.cert with
        | None -> true (* refusal is always allowed *)
        | Some cert -> (
          let compute' = Ops.Op.compute (Ops.Matmul.gemm ~m ~n ~k ()) in
          match Verify.Cert.admits_compute cert compute' with
          | Error _ -> true
          | Ok () ->
            errors (Verify.run (Etir.retarget !e compute') ~hw) = []))

(* ---------- export: JSON and SARIF ---------- *)

(* Documents are read back through the strict parser; a document that does
   not parse, or lacks an asserted field, fails the test. *)
let parse_ok doc = match Json.parse doc with Ok v -> v | Error m -> Alcotest.fail m

let str v = Option.get (Json.to_string_opt v)
let arr v = Option.get (Json.to_list v)

(* Diagnostics with every JSON-hostile character the messages can carry. *)
let nasty_diags () =
  [ Verify.Diagnostic.v ~code:"GSR-B01" Verify.Diagnostic.Error
      Verify.Diagnostic.Bounds ~loc:"axis \"i\"" "tile > extent \\ %s" "q\"uo\"te";
    Verify.Diagnostic.v ~code:"GSR-R02" Verify.Diagnostic.Warning
      Verify.Diagnostic.Race ~loc:"kernel line 3" "line1\nline2\ttabbed";
    Verify.Diagnostic.v ~code:"GSR-C04" Verify.Diagnostic.Info
      Verify.Diagnostic.Cert ~loc:"region" "control \001 char" ]

let test_json_export_valid () =
  let items =
    [ Verify.Export.item ~target:"dev/op \"x\"" (nasty_diags ());
      Verify.Export.item ~region:"32 <= i <= 256" ~target:"dev/op2" [] ]
  in
  let doc = parse_ok (Verify.Export.json items) in
  Alcotest.(check string)
    "tool name" "gensor-verify"
    (str (Json.member "tool" doc));
  let parsed_items = arr (Json.member "items" doc) in
  Alcotest.(check int) "two items" 2 (List.length parsed_items);
  let summary = Json.member "summary" doc in
  Alcotest.(check string) "error tally" "1."
    (Fmt.str "%g."
       (Option.value ~default:nan (Json.to_float (Json.member "errors" summary))));
  (* round-trips the hostile message bytes *)
  let first = List.hd parsed_items in
  let diags = arr (Json.member "diagnostics" first) in
  check_bool "escaped message round-trips" true
    (List.exists
       (fun d ->
         str (Json.member "message" d) = "tile > extent \\ q\"uo\"te")
       diags)

let test_sarif_export_valid () =
  let items =
    [ Verify.Export.item ~target:"rtx4090/M1/gensor" (nasty_diags ()) ]
  in
  let doc = parse_ok (Verify.Export.sarif items) in
  Alcotest.(check string)
    "sarif version" "2.1.0"
    (str (Json.member "version" doc));
  check_bool "schema uri present" true
    (contains (str (Json.member "$schema" doc)) "sarif-2.1.0");
  let runs = arr (Json.member "runs" doc) in
  Alcotest.(check int) "one run" 1 (List.length runs);
  let run = List.hd runs in
  let driver = Json.member "driver" (Json.member "tool" run) in
  Alcotest.(check string)
    "driver name" "gensor-verify"
    (str (Json.member "name" driver));
  let rule_ids =
    List.map (fun r -> str (Json.member "id" r)) (arr (Json.member "rules" driver))
  in
  let results = arr (Json.member "results" run) in
  Alcotest.(check int) "one result per diagnostic" 3 (List.length results);
  List.iter
    (fun r ->
      let rule_id = str (Json.member "ruleId" r) in
      check_bool "ruleId is a listed rule" true (List.mem rule_id rule_ids);
      let level = str (Json.member "level" r) in
      check_bool "level is a SARIF level" true
        (List.mem level [ "error"; "warning"; "note" ]);
      check_bool "message text present" true
        (Json.to_string_opt (Json.member "text" (Json.member "message" r))
        <> None))
    results

let () =
  Alcotest.run "verify"
    [ ("positive",
       [ Alcotest.test_case "legal schedule is clean" `Quick
           test_clean_on_legal_schedule;
         Alcotest.test_case "pipeline outputs verify" `Quick
           test_clean_on_pipeline_outputs;
         Alcotest.test_case "debug assertion passes" `Quick
           test_debug_assertion_passes;
         QCheck_alcotest.to_alcotest prop_sound_on_legal_states ]);
      ("negative",
       [ Alcotest.test_case "oob tile fixture" `Quick test_oob_tile_fixture;
         Alcotest.test_case "missing sync fixture" `Quick
           test_missing_sync_fixture;
         Alcotest.test_case "divergent barrier" `Quick test_divergent_barrier;
         Alcotest.test_case "lint: shrunk smem" `Quick
           test_lint_catches_shrunk_smem;
         Alcotest.test_case "lint: wrong launch" `Quick
           test_lint_catches_wrong_launch;
         Alcotest.test_case "non-dividing tiles warn" `Quick
           test_nondividing_warns_not_errors ]);
      ("codes",
       [ Alcotest.test_case "divergent barrier is GSR-R01" `Quick
           test_divergent_barrier_code;
         Alcotest.test_case "non-dividing tile is GSR-B04" `Quick
           test_nondividing_code ]);
      ("cert",
       [ Alcotest.test_case "configured GEMM certifies" `Quick
           test_cert_on_configured;
         Alcotest.test_case "broken witness is refused" `Quick
           test_cert_refuses_broken_witness;
         Alcotest.test_case "structure change is rejected" `Quick
           test_cert_rejects_structure_change;
         QCheck_alcotest.to_alcotest prop_cert_sound ]);
      ("export",
       [ Alcotest.test_case "json is valid and escaped" `Quick
           test_json_export_valid;
         Alcotest.test_case "sarif 2.1.0 is well-formed" `Quick
           test_sarif_export_valid ]) ]
