(* Whole-network benchmark of the shipped pipeline: cold and warm compiles
   of real network graphs through Dnn.Runner.run_graph, Verify.run and CUDA
   emission on every distinct kernel, and verified execution of the chosen
   schedules on the bytecode VM.  Every layer is timed from outside, by
   wrapping the calls into it.  Times in the JSON are scaled to the
   machine speed a benchmark-owned probe measures alongside the work
   (speed.mli).  Workloads, metrics and baseline findings are described in
   perfbench/NOTES.md.

   Usage: main.exe --workload W --seed N --seconds S --trace 0|1
   The last line of standard output is one JSON object. *)

let hw = Hardware.Presets.rtx4090
let now = Unix.gettimeofday
let ms_since t0 = (now () -. t0) *. 1e3
let span = Spans.span
let pr fmt = Printf.printf (fmt ^^ "\n%!")

(* ---------- command line ---------- *)

type workload = Networks_cold | Networks_warm | Exec_verify

let workloads =
  [ ("networks-cold", Networks_cold);
    ("networks-warm", Networks_warm);
    ("exec-verify", Exec_verify) ]

type args = { workload : workload; wname : string; seed : int; seconds : float; trace : bool }

let parse_args argv =
  let rec pairs acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      pairs ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> Ok acc
    | k :: _ -> Error (Printf.sprintf "unexpected argument %S" k)
  in
  let ( let* ) = Result.bind in
  let* kv = pairs [] (List.tl (Array.to_list argv)) in
  let get k =
    match List.assoc_opt k kv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing --%s" k)
  in
  let int_arg k ~min =
    let* v = get k in
    match int_of_string_opt v with
    | Some n when n >= min -> Ok n
    | _ -> Error (Printf.sprintf "--%s wants an integer >= %d, got %S" k min v)
  in
  let* wname = get "workload" in
  let* workload =
    Option.to_result (List.assoc_opt wname workloads)
      ~none:
        (Printf.sprintf "unknown workload %S (one of: %s)" wname
           (String.concat ", " (List.map fst workloads)))
  in
  let* seed = int_arg "seed" ~min:0 in
  let* seconds = int_arg "seconds" ~min:1 in
  let* trace = int_arg "trace" ~min:0 in
  if trace > 1 then Error "--trace wants 0 or 1"
  else Ok { workload; wname; seed; seconds = float_of_int seconds; trace = trace = 1 }

(* ---------- scratch directories (inside the working directory) ---------- *)

let out_root = ".perfbench-out"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_p path = if not (Sys.file_exists path) then Sys.mkdir path 0o755

(* ---------- networks and their distinct kernels ---------- *)

type kernel = {
  net_name : string;
  node : string;  (** first fused node using this kernel *)
  key : string;  (** the runner's dedup key *)
  op : Ops.Op.t;
  compute_fp : string;  (** identity of the operator the node asks for *)
}

type net = { name : string; graph : Dnn.Graph.t; kernels : kernel list }

(* The distinct kernels run_graph compiles, in fused-graph node order. *)
let net_of (name, graph) =
  let fused = (Dnn.Fusion.fuse graph).Dnn.Fusion.graph in
  let seen = Hashtbl.create 64 in
  let kernels =
    List.filter_map
      (fun (n : Dnn.Graph.node) ->
        let key = Dnn.Model.distinct_key n.op in
        if Hashtbl.mem seen key then None
        else begin
          Hashtbl.add seen key ();
          Some
            { net_name = name; node = n.node_name; key; op = n.op;
              compute_fp = Artifact.Compute_codec.fingerprint (Ops.Op.compute n.op) }
        end)
      (Dnn.Graph.nodes fused)
  in
  { name; graph; kernels }

let big_networks () =
  [ ("resnet50", Dnn.Resnet.resnet50_graph ~batch:8 ());
    ("mobilenet_v2", Dnn.Mobilenet.mobilenet_v2_graph ~batch:8 ());
    ("bert_small", Dnn.Transformer.bert_small_graph ~batch:8 ~seq:128 ());
    ("gpt2", Dnn.Transformer.gpt2_graph ~batch:8 ~seq:128 ()) ]

let exec_networks () =
  [ ("mobilenet_v2", Dnn.Mobilenet.mobilenet_v2_graph ~batch:1 ~width_mult:0.35 ());
    ("bert_small", Dnn.Transformer.bert_small_graph ~batch:1 ~seq:8 ()) ]

(* ---------- compile one network through the shipped pipeline ---------- *)

(* What the benchmark saw of one kernel in one pass. *)
type seen = {
  k : kernel;
  out : Pipeline.Methods.output option;  (** compiled here or read back *)
  verify_errors : string list;
  cuda_bytes : int;
}

type net_pass = {
  net : net;
  report : Dnn.Runner.graph_report;
  seen : seen list;
  store : Artifact.Store.t;
}

(* The method run_graph receives: the real Gensor compile, timed, with each
   output kept so the benchmark can check the schedule it chose. *)
type recorder = {
  captured : (string, Pipeline.Methods.output) Hashtbl.t;
  mutable calls_ms : float list;
  lock : Mutex.t;
}

let recorder () = { captured = Hashtbl.create 64; calls_ms = []; lock = Mutex.create () }

let instrument (base : Pipeline.Methods.t) r =
  { base with
    compile =
      (fun ~hw op ->
        let t0 = now () in
        let out = span "pipeline.compile" (fun () -> base.compile ~hw op) in
        let dt = ms_since t0 in
        Mutex.protect r.lock (fun () ->
            Hashtbl.replace r.captured (Dnn.Model.distinct_key op) out;
            r.calls_ms <- dt :: r.calls_ms);
        if Domain.is_main_domain () then Speed.tick ();
        out) }

let device_fp = Artifact.Gpu_codec.fingerprint hw

let compile_network ~(base : Pipeline.Methods.t) ~r ~store net =
  Hashtbl.reset r.captured;
  if Spans.enabled () then begin
    let fused = span "dnn.fusion" (fun () -> Dnn.Fusion.fuse net.graph) in
    ignore (span "dnn.memplan" (fun () -> Dnn.Memplan.plan fused.Dnn.Fusion.graph))
  end;
  let report =
    span "dnn.runner" (fun () ->
        Dnn.Runner.run_graph ~store ~hw (instrument base r) net.graph)
  in
  let seen =
    List.map
      (fun k ->
        let out =
          match Hashtbl.find_opt r.captured k.key with
          | Some o -> Some o
          | None ->
            span "artifact.store.find" (fun () ->
                Artifact.Store.find store ~device_fingerprint:device_fp
                  ~method_name:base.name ~compute_fingerprint:k.compute_fp
                |> Option.map Pipeline.Methods.of_artifact)
        in
        match out with
        | None -> { k; out; verify_errors = []; cuda_bytes = 0 }
        | Some o ->
          let errors =
            span "verify" (fun () -> Verify.Diagnostic.errors (Verify.run o.etir ~hw))
          in
          let cuda =
            span "codegen" (fun () ->
                Codegen.Cuda.emit o.etir ^ Codegen.Cuda.emit_host o.etir)
          in
          Speed.tick ();
          { k; out;
            verify_errors = List.map (Fmt.str "%a" Verify.Diagnostic.pp) errors;
            cuda_bytes = String.length cuda })
      net.kernels
  in
  { net; report; seen; store }

let clear_memo () = span "parallel.memo.clear" Parallel.Memo.clear_all

(* ---------- failure accounting ---------- *)

let schedule_fp (o : Pipeline.Methods.output) =
  let c = Sched.Etir.compute o.etir in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (Artifact.Compute_codec.fingerprint c :: Artifact.Etir_codec.encode o.etir)))

(* An operator by name and shapes, e.g. "conv2d(I[1;8;58;58] W[8;1;3;3]) -> [1;8;28;28]". *)
let describe c =
  let shape l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]" in
  Printf.sprintf "%s(%s) -> %s" (Tensor_lang.Compute.name c)
    (String.concat " "
       (List.map
          (fun (i : Tensor_lang.Compute.input) -> i.in_name ^ shape i.in_shape)
          (Tensor_lang.Compute.inputs c)))
    (shape (Tensor_lang.Compute.output_shape c))

(* Why a kernel failed, or [] when it passed every check that applies. *)
let compile_failures ?cold s =
  match s.out with
  | None -> [ "no schedule: neither compiled nor found in the store" ]
  | Some o ->
    let got = Sched.Etir.compute o.etir in
    (if Artifact.Compute_codec.fingerprint got <> s.k.compute_fp then
       [ Printf.sprintf "wrong operator: ETIR computes %s, node asks for %s" (describe got)
           (describe (Ops.Op.compute s.k.op)) ]
     else [])
    @ List.map (fun e -> "Verify.run error: " ^ e) s.verify_errors
    @
    match cold with
    | None -> []
    | Some cold -> (
      match Hashtbl.find_opt cold (s.k.net_name, s.k.key) with
      | Some (fp, _) when fp = schedule_fp o -> []
      | Some (fp, cold_failures) ->
        [ Printf.sprintf "warm schedule %s differs from the cold schedule %s%s"
            (String.sub (schedule_fp o) 0 8) (String.sub fp 0 8)
            (if cold_failures = [] then ""
             else " (which failed: " ^ String.concat "; " cold_failures ^ ")") ]
      | None -> [ "no cold schedule recorded for this kernel" ])

(* One operation is one distinct kernel of one schedule set, whatever the
   number of passes, so the counts depend on the seed alone: it fails when a
   check failed in any pass.  [hits] keys failures by (network, node,
   optimizer seed, reason), each with the number of passes it hit. *)
type tally = {
  checked : (string * string * int, bool) Hashtbl.t;  (** (network, key, seed) -> failed *)
  hits : (string * string * int * string, int) Hashtbl.t;
}

let tally () = { checked = Hashtbl.create 256; hits = Hashtbl.create 8 }
let attempted t = Hashtbl.length t.checked
let failed t = Hashtbl.fold (fun _ bad n -> if bad then n + 1 else n) t.checked 0

let account t ~opt_seed (k : kernel) reasons =
  let id = (k.net_name, k.key, opt_seed) in
  let before = Option.value (Hashtbl.find_opt t.checked id) ~default:false in
  Hashtbl.replace t.checked id (before || reasons <> []);
  if reasons <> [] then begin
    List.iter
      (fun why ->
        let key = (k.net_name, k.node, opt_seed, why) in
        Hashtbl.replace t.hits key (1 + Option.value (Hashtbl.find_opt t.hits key) ~default:0))
      reasons
  end

(* ---------- VM execution, checked against the reference interpreter ---------- *)

type exec_kernel = {
  ek : kernel;
  opt_seed : int;  (** optimizer seed the schedule came from *)
  etir : Sched.Etir.t option;
  static_failures : string list;  (** from the compile-side checks *)
  inputs : (string * Exec.Tensor.t) list;
  reference : Exec.Tensor.t;
  points : int;
  kind : string;  (** conv / dwconv / matmul / other *)
}

type exec_outcome =
  | Ran of { lower_ms : float; vm_ms : float; output : Exec.Tensor.t }
  | Raised of string

let kind_label op =
  match Ops.Op.kind op with
  | Ops.Op.Conv2d -> "conv"
  | Depthwise_conv2d -> "dwconv"
  | Gemm | Gemv | Batch_matmul -> "matmul"
  | Avgpool2d | Maxpool2d | Elementwise -> "other"

let execute etir inputs =
  let t0 = now () in
  match span "exec.lower" (fun () -> Exec.Compiled.compile etir) with
  | exception e -> Raised ("lowering raised " ^ Printexc.to_string e)
  | prog -> (
    let t1 = now () in
    match span "exec.vm" (fun () -> Exec.Compiled.run_compiled prog inputs) with
    | exception e -> Raised ("VM raised " ^ Printexc.to_string e)
    | res ->
      let t2 = now () in
      Ran { lower_ms = (t1 -. t0) *. 1e3; vm_ms = (t2 -. t1) *. 1e3;
            output = res.Exec.Scheduled.output })

let output_failures ~reference = function
  | Raised why -> [ why ]
  | Ran { output; _ } -> (
    match Exec.Tensor.first_mismatch output reference with
    | None -> []
    | Some (coords, got, want) ->
      [ Printf.sprintf "output mismatch at [%s]: VM %.9g, reference %.9g"
          (String.concat ";" (List.map string_of_int coords)) got want ])

(* ---------- self-test: the failure accounting must not go blind ---------- *)

let selftest () =
  let op_a = Ops.Matmul.gemm ~name:"selftest_a" ~m:16 ~n:16 ~k:16 () in
  let op_b = Ops.Matmul.gemm ~name:"selftest_b" ~m:16 ~n:32 ~k:8 () in
  let roller = Pipeline.Methods.roller () in
  let checks = ref [] in
  let check name ok = checks := (name, ok) :: !checks in
  (* A method that answers every request with another op's schedule. *)
  let liar = { roller with compile = (fun ~hw _ -> roller.compile ~hw op_b) } in
  let b = Dnn.Graph.builder ~name:"selftest" ~batch:1 in
  ignore (Dnn.Graph.add b "a" op_a : int);
  let net = net_of ("selftest", Dnn.Graph.build b) in
  let dir = Filename.concat out_root (Printf.sprintf "selftest-%d" (Unix.getpid ())) in
  let np = compile_network ~base:liar ~r:(recorder ()) ~store:(Artifact.Store.open_ dir) net in
  rm_rf dir;
  check "wrong-operator schedule is counted"
    (List.exists (fun s -> compile_failures s <> []) np.seen);
  (* A one-element perturbation of a correct VM output. *)
  let compute = Ops.Op.compute op_a in
  let etir = (roller.compile ~hw op_a).etir in
  let inputs = Exec.Reference.random_inputs ~seed:7 compute in
  let reference = Exec.Reference.run compute inputs in
  (match execute etir inputs with
  | Raised why -> check ("VM runs the self-test GEMM: " ^ why) false
  | Ran r as ran ->
    check "correct VM output passes" (output_failures ~reference ran = []);
    let out = r.output in
    let bent = Exec.Tensor.init (Exec.Tensor.shape out) (Exec.Tensor.get out) in
    let at = [ 3; 5 ] in
    Exec.Tensor.set bent at (Exec.Tensor.get bent at +. 0.5);
    check "perturbed VM output is counted"
      (output_failures ~reference (Ran { r with output = bent }) <> []));
  (* Tail percentiles need ten samples beyond them. *)
  let xs n = List.init n float_of_int in
  check "p90 of 99 samples is refused" (Result.is_error (Stats.tail ~q:0.9 (xs 99)));
  check "p90 of 100 samples is answered" (Stats.tail ~q:0.9 (xs 100) = Ok 89.0);
  check "p99 of 999 samples is refused" (Result.is_error (Stats.tail ~q:0.99 (xs 999)));
  check "median of one sample is answered" (Stats.median [ 4.0 ] = 4.0);
  List.rev !checks

(* ---------- counters read around a pass ---------- *)

let counter_names =
  [ "optimizer.states_explored"; "optimizer.candidates_evaluated";
    "optimizer.candidates_pruned"; "delta.full_builds"; "delta.incremental_builds";
    "delta.levels_recomputed"; "delta.levels_reused"; "store.puts" ]

let read_counters () =
  List.map (fun n -> (n, Option.value (Trace.Counter.find n) ~default:0)) counter_names

let counters_delta before after =
  List.map2 (fun (n, a) (_, b) -> (n, b - a)) before after

(* Memo hit/miss totals per cache, read before each clear. *)
let memo_snapshot () =
  List.map
    (fun (name, (s : Parallel.Memo.stats)) -> (name, (s.hits, s.misses)))
    (Parallel.Memo.all_stats ())

(* ---------- one pass of each workload ---------- *)

type pass = {
  wall_ms : float;
  nps : net_pass list;
  calls_ms : float list;  (** each wrapped compile call *)
  counters : (string * int) list;
  memo : (string * (int * int)) list list;
  store_bytes : int;  (** on disk over the stores the pass used, at its end *)
}

(* Bytes on disk over the distinct stores a pass used. *)
let store_bytes nps =
  List.fold_left
    (fun acc np -> if List.memq np.store acc then acc else np.store :: acc)
    [] nps
  |> List.fold_left (fun acc st -> acc + Artifact.Store.total_bytes st) 0

let sim_ms nps =
  List.fold_left (fun acc np -> acc +. (np.report.Dnn.Runner.g_e2e_s *. 1e3)) 0.0 nps

let folded nps = List.fold_left (fun acc np -> acc + np.report.Dnn.Runner.g_folded) 0 nps

let digest nps =
  let fps =
    List.concat_map
      (fun np ->
        List.map (fun s -> Option.fold ~none:"-" ~some:schedule_fp s.out) np.seen)
      nps
  in
  Printf.sprintf "sim=%.17g folded=%d schedules=%s" (sim_ms nps) (folded nps)
    (Digest.to_hex (Digest.string (String.concat "," fps)))

(* Each network compiled after clearing the memo caches, into the store
   [open_store] gives it. *)
let cold_pass ~base ~open_store nets =
  let r = recorder () in
  let before = read_counters () in
  let memo = ref [] in
  let nps, wall_ms =
    Speed.timed (fun () ->
        List.map
          (fun net ->
            clear_memo ();
            let store = span "artifact.store.open" (fun () -> open_store net) in
            let np = compile_network ~base ~r ~store net in
            memo := memo_snapshot () :: !memo;
            np)
          nets)
  in
  { wall_ms; nps; calls_ms = r.calls_ms; memo = !memo;
    counters = counters_delta before (read_counters ()); store_bytes = store_bytes nps }

(* A fresh empty store per network. *)
let fresh_stores ~dir ~tag net =
  Artifact.Store.open_ (Filename.concat dir (tag ^ "-" ^ net.name))

(* All networks served from one store, reopened after clearing the memo. *)
let warm_pass ~base ~dir nets =
  let r = recorder () in
  let before = read_counters () in
  let nps, wall_ms =
    Speed.timed (fun () ->
        clear_memo ();
        let store = span "artifact.store.open" (fun () -> Artifact.Store.open_ dir) in
        List.map (fun net -> compile_network ~base ~r ~store net) nets)
  in
  { wall_ms; nps; calls_ms = r.calls_ms; memo = [ memo_snapshot () ];
    counters = counters_delta before (read_counters ()); store_bytes = store_bytes nps }

type exec_pass = { e_wall_ms : float; outcomes : (exec_kernel * exec_outcome option) list }

let exec_pass kernels =
  let outcomes, e_wall_ms =
    Speed.timed (fun () ->
        List.map
          (fun ek ->
            let outcome = Option.map (fun etir -> execute etir ek.inputs) ek.etir in
            Speed.tick ();
            (ek, outcome))
          kernels)
  in
  { e_wall_ms; outcomes }

(* Passes until [seconds] have gone by, at least [min_passes].  Each starts
   from a fully collected heap: otherwise a pass's time depends on where the
   major GC cycle stands when it starts (warm passes, 60 ms of allocation
   each, spread 0.34 over ten 12-second stretches of one run without this
   and 0.08 with it). *)
let timed_loop ~min_passes ~seconds f =
  let t0 = now () in
  let rec go i acc =
    Gc.full_major ();
    let m = Speed.mark () in
    let ms = f i in
    Speed.tick ~force:true ();
    let acc = (ms, fst (Speed.factor m)) :: acc in
    if i + 1 < min_passes || now () -. t0 < seconds then go (i + 1) acc else List.rev acc
  in
  go 0 []

(* ---------- metrics ---------- *)

type metric = { mname : string; value : float; unit_ : string }

let m mname unit_ value = { mname; value; unit_ }
(* A ratio with no denominator is undefined, not 0: it stays NaN, and a run
   whose JSON would carry one fails instead of reporting it (see [main]). *)
let ratio a b = if b = 0 then Float.nan else float_of_int a /. float_of_int b
let mb bytes = float_of_int bytes /. 1e6

let peak_heap_mb () =
  mb ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~(t : tally) metrics =
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.mname (json_number x.value)
          x.unit_)
      metrics
  in
  pr "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    (attempted t) (failed t) (String.concat ", " fields)

(* Per-layer costs over traced roots (passes or set-ups): each layer's
   per-root total and self time, as medians over roots. *)
type layers = {
  self_ms : (string * float) list;
  total_ms : (string * float) list;
  root_ms : float list;
  unattributed : float list;  (** root self time, per root *)
}

let layers_of roots =
  let rolls = List.map (fun s -> (s, Spans.rollup s)) roots in
  let names =
    List.sort_uniq compare
      (List.concat_map (fun (_, (l, _)) -> List.map fst l) rolls)
  in
  let med pick =
    List.map
      (fun n ->
        ( n,
          Stats.median
            (List.map
               (fun (_, (l, _)) ->
                 Option.fold ~none:0.0 ~some:pick (List.assoc_opt n l))
               rolls) ))
      names
  in
  { self_ms = med snd; total_ms = med fst;
    root_ms = List.map (fun (s, _) -> Spans.ms s) rolls;
    unattributed = List.map (fun (_, (_, u)) -> u) rolls }

let layer_ms l name = Option.value (List.assoc_opt name l.total_ms) ~default:0.0
let layer_self l name = Option.value (List.assoc_opt name l.self_ms) ~default:0.0

(* Largest median share of a root's wall time that no layer span may cover. *)
let reconcile_tolerance = 0.02

let print_layers ~title l =
  pr "-- %s: per-layer self time, median per root over %d root(s)" title
    (List.length l.root_ms);
  List.iter
    (fun (n, self) ->
      pr "   %-24s self %10.3f ms   total %10.3f ms" n self (layer_ms l n))
    l.self_ms;
  let sum = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 l.self_ms in
  let wall = Stats.median l.root_ms in
  pr "   %-24s      %10.3f ms   root wall (median) %10.3f ms" "sum of layers" sum wall;
  let shares = List.map2 (fun u w -> if w > 0.0 then u /. w else 0.0) l.unattributed l.root_ms in
  let share = Stats.median shares in
  let ok = share <= reconcile_tolerance in
  pr "   reconcile: unattributed share of root wall %.3f%% (median; max %.3f%%), tolerance %.1f%%: %s"
    (share *. 100.0)
    (List.fold_left Float.max 0.0 shares *. 100.0)
    (reconcile_tolerance *. 100.0) (if ok then "ok" else "FAILED");
  ok

(* Hits and lookups per memo cache over a pass. *)
let memo_totals (p : pass) =
  let totals = Hashtbl.create 4 in
  List.iter
    (List.iter (fun (name, (h, mi)) ->
         let h0, m0 = Option.value (Hashtbl.find_opt totals name) ~default:(0, 0) in
         Hashtbl.replace totals name (h0 + h, m0 + mi)))
    p.memo;
  List.map
    (fun name -> (name, Option.value (Hashtbl.find_opt totals name) ~default:(0, 0)))
    [ "footprint"; "evaluate"; "transitions" ]

let print_memo (p : pass) =
  List.iter
    (fun (name, (h, mi)) ->
      pr "   parallel.memo.%-12s %d hit(s) of %d lookup(s)" name h (h + mi))
    (memo_totals p)

(* Per-layer metrics.  [built] is a cold compile (the last pass on
   networks-cold, the store fill on networks-warm, the set-up on
   exec-verify): every construction-side metric comes from it, so each
   has calls, states and lookups behind it on every workload.  [served]
   is the pass the store hit rate, verify and codegen figures come from. *)
let compile_layer_metrics ~layers ~(built : pass) ~(served : pass) =
  let c n = List.assoc n built.counters in
  let compile_s = List.fold_left ( +. ) 0.0 built.calls_ms /. 1e3 in
  let sum f = List.fold_left (fun acc np -> acc + f np) 0 served.nps in
  let verify_errors = sum (fun np -> List.fold_left (fun a s -> a + List.length s.verify_errors) 0 np.seen) in
  let kernels = sum (fun np -> np.report.Dnn.Runner.g_kernels) in
  let cached = sum (fun np -> np.report.Dnn.Runner.g_cached) in
  [ m "dnn.fusion.ms" "ms" (layer_ms layers "dnn.fusion");
    m "dnn.memplan.ms" "ms" (layer_ms layers "dnn.memplan");
    m "dnn.runner.self_ms" "ms" (layer_self layers "dnn.runner");
    m "dnn.fusion.folded" "count" (float_of_int (folded served.nps));
    m "dnn.memplan.peak_mb" "MB"
      (mb (sum (fun np -> np.report.Dnn.Runner.g_peak_bytes)));
    m "pipeline.kernels" "count" (float_of_int (List.length built.calls_ms));
    m "core.states_explored" "count" (float_of_int (c "optimizer.states_explored"));
    m "core.states_per_s" "1/s"
      (if compile_s > 0.0 then float_of_int (c "optimizer.states_explored") /. compile_s
       else Float.nan);
    m "core.prune_rate" "ratio"
      (ratio (c "optimizer.candidates_pruned")
         (c "optimizer.candidates_pruned" + c "optimizer.candidates_evaluated"));
    m "costmodel.delta.builds" "count"
      (float_of_int (c "delta.full_builds" + c "delta.incremental_builds"));
    m "costmodel.delta.reuse_ratio" "ratio"
      (ratio (c "delta.levels_reused") (c "delta.levels_reused" + c "delta.levels_recomputed")) ]
  @ List.filter_map
      (fun (name, (h, mi)) ->
        (* The Gensor method never consults the evaluate cache (Ansor and
           the kernel cache do), so it has no hit rate here. *)
        if name = "evaluate" then None
        else Some (m ("parallel.memo.hit_rate." ^ name) "ratio" (ratio h (h + mi))))
      (memo_totals built)
  @ [ m "artifact.store.open_ms" "ms" (layer_ms layers "artifact.store.open");
      m "artifact.store.hit_rate" "ratio" (ratio cached kernels);
      m "artifact.store.puts" "count" (float_of_int (c "store.puts"));
      m "artifact.store.bytes" "B" (float_of_int built.store_bytes);
      m "verify.ms" "ms" (layer_ms layers "verify");
      m "verify.errors" "count" (float_of_int verify_errors);
      m "codegen.ms" "ms" (layer_ms layers "codegen");
      m "codegen.bytes" "B"
        (float_of_int (sum (fun np -> List.fold_left (fun a s -> a + s.cuda_bytes) 0 np.seen))) ]

(* ---------- workloads ---------- *)

(* Everything a workload hands back for reporting. *)
type result = {
  label : string;  (** what one timed pass is: compile_ms or exec_ms *)
  setup_s : float list;
  setup_speed : float * int;  (** {!Speed.factor} over the set-ups *)
  passes_ms : (float * float) list;  (** untraced passes, each with its probe factor *)
  traced_ms : float list;  (** traced passes (trace run only) *)
  sim_ms : float;
  t : tally;
  nondeterministic : string list;
  layer_metrics : metric list;  (** per-layer metrics (trace run only) *)
  human : unit -> bool;  (** workload-specific lines; false if a check failed *)
}

(* Every element equal to the first, else a description of the drift. *)
let same what = function
  | [] | [ _ ] -> []
  | x :: rest ->
    List.filteri (fun _ y -> y <> x) rest
    |> List.map (fun y -> Printf.sprintf "%s drifted: %s vs %s" what x y)

(* Set-ups run [reps] times, each from a fully collected heap; only the
   last one's state is kept.  The count is fixed, not timed, so the heap the
   passes start from (and with it peak_heap_mb) does not depend on the
   machine's speed. *)
let repeat_setup ~reps f =
  let m = Speed.mark () in
  let rec go n times =
    Gc.full_major ();
    let v, ms = Speed.timed (fun () -> span "setup" f) in
    Speed.tick ();
    let times = (ms /. 1e3) :: times in
    if n <= 1 then (List.rev times, Speed.factor m, v) else go (n - 1) times
  in
  go reps []

(* Untraced passes for the whole budget, or in a trace run half untraced
   (for the overhead baseline) and half traced.  The heap left by set-up is
   compacted first, so its garbage is not collected on the passes' time.
   Workloads whose passes take seconds ask for a minimum count, so that a
   slow stretch of the machine does not leave a run with fewer samples. *)
let run_passes ?(min_passes = 1) ~trace ~seconds pass =
  Gc.compact ();
  if not trace then (timed_loop ~min_passes ~seconds (fun i -> pass i), [])
  else begin
    Spans.set_enabled false;
    let plain = timed_loop ~min_passes ~seconds:(seconds /. 2.0) (fun i -> pass i) in
    Spans.set_enabled true;
    let traced =
      timed_loop ~min_passes ~seconds:(seconds /. 2.0) (fun i -> pass (List.length plain + i))
    in
    (plain, List.map fst traced)
  end

let roots name = List.filter (fun (s : Spans.t) -> s.parent = -1 && s.name = name) (Spans.all ())

let print_runner_rows (last : pass) layers_per_net =
  List.iter
    (fun np ->
      let n = np.net.name in
      pr "   dnn.runner.ms.%-14s %10.3f ms   dnn.runner.sim_ms.%-14s %.6f ms (simulated)" n
        (Option.value (List.assoc_opt n layers_per_net) ~default:nan)
        n (np.report.Dnn.Runner.g_e2e_s *. 1e3))
    last.nps

(* Wall time of each wrapped compile call, over the whole run. *)
let print_kernel_ms calls =
  pr "   pipeline.kernel_ms.p50     %s"
    (if calls = [] then "no compile calls"
     else Printf.sprintf "%.3f ms (n=%d)" (Stats.median calls) (List.length calls));
  pr "   pipeline.kernel_ms.p90     %s"
    (match Stats.tail ~q:0.9 calls with
    | Ok v -> Printf.sprintf "%.3f ms (n=%d)" v (List.length calls)
    | Error e -> e)

(* Runner wall per network, from the traced dnn.runner spans in pass roots. *)
let runner_ms_per_net rs (last : pass) =
  let per_root =
    List.map
      (fun (root : Spans.t) ->
        let runners =
          List.filter (fun (s : Spans.t) -> s.parent = root.id && s.name = "dnn.runner")
            (Spans.all ())
        in
        List.map2 (fun np s -> (np.net.name, Spans.ms s)) last.nps runners)
      rs
  in
  List.map
    (fun np ->
      (np.net.name, Stats.median (List.map (List.assoc np.net.name) per_root)))
    last.nps

let networks ~a ~base ~dir ~warm =
  let t = tally () in
  let nets_of () = List.map net_of (big_networks ()) in
  (* Cold: set-up only builds the graphs, ~5 ms, so it is repeated 300
     times (~2 s) and its median spans several of the machine's sub-second
     speed swings.  Warm: set-up also fills the store the passes are served
     from, once (a fill takes 9-12 s). *)
  let master = Filename.concat dir "master" in
  let setup_s, setup_speed, (nets, fill) =
    if not warm then
      let setup_s, speed, nets = repeat_setup ~reps:300 nets_of in
      (setup_s, speed, (nets, None))
    else
      repeat_setup ~reps:1 (fun () ->
          let nets = nets_of () in
          rm_rf master;
          let store = lazy (Artifact.Store.open_ master) in
          (nets, Some (cold_pass ~base ~open_store:(fun _ -> Lazy.force store) nets)))
  in
  (* The schedule the fill chose for each kernel, and why it failed. *)
  let cold = Hashtbl.create 128 in
  Option.iter
    (fun (fill : pass) ->
      List.iter
        (fun np ->
          List.iter
            (fun s ->
              Option.iter
                (fun o ->
                  Hashtbl.replace cold (s.k.net_name, s.k.key)
                    (schedule_fp o, compile_failures s))
                s.out)
            np.seen)
        fill.nps)
    fill;
  (* Warm passes write back what they rebuild, as any warm process would:
     only the first pass is served by the store as the fill left it. *)
  let first = ref None and last = ref None in
  let digests = ref [] and calls = ref [] in
  let pass i =
    let p =
      if warm then span "pass" (fun () -> warm_pass ~base ~dir:master nets)
      else
        span "pass" (fun () ->
            cold_pass ~base ~open_store:(fresh_stores ~dir ~tag:(Printf.sprintf "p%d" i)) nets)
    in
    List.iter
      (fun np ->
        List.iter
          (fun s ->
            account t ~opt_seed:a.seed s.k
              (compile_failures ?cold:(if warm then Some cold else None) s))
          np.seen)
      p.nps;
    if not warm then List.iter (fun np -> rm_rf (Artifact.Store.dir np.store)) p.nps;
    digests := digest p.nps :: !digests;
    calls := p.calls_ms @ !calls;
    if Option.is_none !first then first := Some p;
    last := Some p;
    p.wall_ms
  in
  let passes_ms, traced_ms =
    run_passes ~min_passes:(if warm then 1 else 2) ~trace:a.trace ~seconds:a.seconds pass
  in
  let first = Option.get !first and last = Option.get !last in
  let built = Option.value fill ~default:last in
  let served = if warm then first else last in
  let layer_metrics, human_layers =
    if not a.trace then ([], fun () -> true)
    else begin
      let rs = roots "pass" in
      let layers = layers_of rs in
      ( compile_layer_metrics ~layers ~built ~served,
        fun () ->
          let ok = print_layers ~title:"traced passes" layers in
          print_runner_rows last (runner_ms_per_net rs last);
          ok )
    end
  in
  { label = "compile_ms"; setup_s; setup_speed; passes_ms; traced_ms;
    sim_ms = sim_ms last.nps; t;
    nondeterministic = same "pass schedules" (List.rev !digests);
    layer_metrics;
    human =
      (fun () ->
        Option.iter (fun (f : pass) -> pr "determinism digest (store fill): %s" (digest f.nps)) fill;
        pr "determinism digest (%d passes): %s" (List.length !digests) (List.hd !digests);
        if warm then begin
          pr "   first warm pass            %10.3f ms  (store as the fill left it: %d kernel(s) missed and rebuilt)"
            first.wall_ms (List.length first.calls_ms);
          pr "   compile calls of the store fill:"
        end;
        print_kernel_ms (if warm then built.calls_ms else !calls);
        print_memo built;
        human_layers ()) }

(* Schedules from this many optimizer seeds run in every exec-verify pass.
   On these small networks the chosen schedules, and with them the VM time
   and the simulated latency, depend on the seed more than on anything an
   optimisation changes (sim_latency_ms spread 13% over seeds 11-15 with
   one schedule set), so each run averages over several. *)
let exec_schedule_sets = 4

let exec_verify ~a ~method_for ~dir =
  let t = tally () in
  let reference_s = ref [] in
  let setups = ref [] in
  let opt_seeds = List.init exec_schedule_sets (fun i -> (a.seed * exec_schedule_sets) + i) in
  (* Set-up: compile both networks cold under every optimizer seed, then
     draw the inputs and compute the reference output of every distinct
     kernel (shared by all schedule sets). *)
  let setup_s, setup_speed, kernels =
    repeat_setup ~reps:1 (fun () ->
        let nets = List.map net_of (exec_networks ()) in
        let sets =
          List.map
            (fun seed ->
              let p =
                cold_pass ~base:(method_for seed)
                  ~open_store:(fresh_stores ~dir ~tag:(Printf.sprintf "setup-s%d" seed))
                  nets
              in
              List.iter (fun np -> rm_rf (Artifact.Store.dir np.store)) p.nps;
              (seed, p))
            opt_seeds
        in
        setups := List.map snd sets;
        let references, ms =
          Speed.timed @@ fun () ->
          List.concat_map
            (fun net ->
              List.map
                (fun k ->
                  let compute = Ops.Op.compute k.op in
                  let inputs =
                    span "exec.inputs" (fun () -> Exec.Reference.random_inputs ~seed:a.seed compute)
                  in
                  let reference =
                    span "exec.reference" (fun () -> Exec.Reference.run compute inputs)
                  in
                  Speed.tick ();
                  ((k.net_name, k.key), (inputs, reference)))
                net.kernels)
            nets
        in
        reference_s := (ms /. 1e3) :: !reference_s;
        List.concat_map
          (fun (seed, p) ->
            List.concat_map
              (fun np ->
                List.map
                  (fun s ->
                    let inputs, reference = List.assoc (s.k.net_name, s.k.key) references in
                    { ek = s.k;
                      opt_seed = seed;
                      etir = Option.map (fun (o : Pipeline.Methods.output) -> o.etir) s.out;
                      static_failures = compile_failures s;
                      inputs;
                      reference;
                      points = Tensor_lang.Compute.domain_points (Ops.Op.compute s.k.op);
                      kind = kind_label s.k.op })
                  np.seen)
              p.nps)
          sets)
  in
  (* The schedule sets' compiles, as one pass for the layer metrics. *)
  let setup_passes = !setups in
  let compiled =
    List.fold_left
      (fun acc p ->
        { wall_ms = acc.wall_ms +. p.wall_ms; nps = acc.nps @ p.nps;
          calls_ms = acc.calls_ms @ p.calls_ms; memo = acc.memo @ p.memo;
          counters = List.map2 (fun (n, x) (_, y) -> (n, x + y)) acc.counters p.counters;
          store_bytes = acc.store_bytes + p.store_bytes })
      (List.hd setup_passes) (List.tl setup_passes)
  in
  let digests = ref [] and last = ref None in
  let pass _ =
    let p = span "pass" (fun () -> exec_pass kernels) in
    let statuses =
      List.map
        (fun (ek, outcome) ->
          let dynamic =
            Option.fold ~none:[] ~some:(output_failures ~reference:ek.reference) outcome
          in
          account t ~opt_seed:ek.opt_seed ek.ek (ek.static_failures @ dynamic);
          match outcome with
          | Some (Ran r) ->
            Digest.to_hex (Digest.string (Marshal.to_string (Exec.Tensor.unsafe_data r.output) []))
          | Some (Raised why) -> why
          | None -> "-")
        p.outcomes
    in
    digests := Digest.to_hex (Digest.string (String.concat "," statuses)) :: !digests;
    last := Some p;
    p.e_wall_ms
  in
  let passes_ms, traced_ms =
    run_passes ~min_passes:4 ~trace:a.trace ~seconds:a.seconds pass
  in
  let last = Option.get !last in
  (* VM layer figures of the last pass, overall and per operator kind. *)
  let ran =
    List.filter_map
      (fun (ek, o) ->
        match o with Some (Ran r) -> Some (ek, r.lower_ms, r.vm_ms) | _ -> None)
      last.outcomes
  in
  let mpts ?kind () =
    let pts, ms =
      List.fold_left
        (fun (p, t) (ek, _, vm) ->
          if Option.fold ~none:true ~some:(String.equal ek.kind) kind then
            (p + ek.points, t +. vm)
          else (p, t))
        (0, 0.0) ran
    in
    if ms > 0.0 then float_of_int pts /. (ms *. 1e3) else 0.0
  in
  let sum f = List.fold_left (fun acc x -> acc +. f x) 0.0 ran in
  let mismatches =
    List.length
      (List.filter
         (fun (ek, o) ->
           match o with
           | Some (Ran _ as r) -> output_failures ~reference:ek.reference r <> []
           | _ -> false)
         last.outcomes)
  in
  let raised =
    List.length (List.filter (fun (_, o) -> match o with Some (Raised _) -> true | _ -> false) last.outcomes)
  in
  let layer_metrics, human_layers =
    if not a.trace then ([], fun () -> true)
    else begin
      let setup_layers = layers_of (roots "setup") in
      let pass_layers = layers_of (roots "pass") in
      ( compile_layer_metrics ~layers:setup_layers ~built:compiled ~served:compiled,
        fun () ->
          print_kernel_ms compiled.calls_ms;
          print_memo compiled;
          let ok_setup = print_layers ~title:"traced set-ups (compile + reference)" setup_layers in
          let ok_pass = print_layers ~title:"traced passes (lower + VM)" pass_layers in
          ok_setup && ok_pass )
    end
  in
  { label = "exec_ms"; setup_s; setup_speed; passes_ms; traced_ms;
    sim_ms = sim_ms compiled.nps /. float_of_int exec_schedule_sets;
    t;
    nondeterministic = same "VM outputs" !digests;
    layer_metrics;
    human =
      (fun () ->
        pr "   exec.lower_ms              %10.3f ms  (last pass)" (sum (fun (_, l, _) -> l));
        pr "   exec.vm_ms                 %10.3f ms  (last pass)" (sum (fun (_, _, v) -> v));
        pr "   exec.vm_mpoints_per_s      %10.2f Mpt/s" (mpts ());
        List.iter
          (fun k -> pr "   exec.vm_mpoints_per_s.%-6s %10.2f Mpt/s" k (mpts ~kind:k ()))
          [ "conv"; "dwconv"; "matmul" ];
        pr "   exec.reference_s           %10.3f s   (median of %d set-ups)"
          (Stats.median !reference_s) (List.length !reference_s);
        pr "   exec.mismatches            %10d     (+%d kernels raised, last pass)" mismatches
          raised;
        pr "determinism digest: set-ups %s; VM outputs (%d passes) %s"
          (String.concat " | " (List.map (fun p -> digest p.nps) setup_passes))
          (List.length !digests) (List.hd !digests);
        human_layers ()) }

(* ---------- main ---------- *)

(* Wall times scaled to the machine speed the probes saw over the same
   stretch (see {!Speed}); their medians are what the JSON reports.  Each
   pass is scaled by its own factor: the speed moves within a run (one run
   at seed 201 had raw passes of 3716, 4431 and 4851 ms under factors of
   1.34, 1.00 and 0.95), and over five seeds of exec-verify, IQR/median
   read 0.240 raw, 0.114 with one factor for all passes of a run and 0.086
   with one per pass.  A set-up is one stretch. *)
let adjusted xs (factor, _) = Stats.median xs *. factor
let adjusted_passes = List.map (fun (ms, factor) -> ms *. factor)

let report a (r : result) =
  let speed (f, n) = Printf.sprintf "probe factor %.4f over %d probe(s)" f n in
  pr "setup_s          %12.4f s    (speed-adjusted; raw median %.4f s of %d set-up(s)%s; %s)"
    (adjusted r.setup_s r.setup_speed) (Stats.median r.setup_s) (List.length r.setup_s)
    (if List.length r.setup_s > 12 then ""
     else ": " ^ String.concat ", " (List.map (Printf.sprintf "%.3f") r.setup_s))
    (speed r.setup_speed);
  let passes = adjusted_passes r.passes_ms in
  pr "%-16s %12.3f ms   (speed-adjusted; raw median %.3f ms, median probe factor %.4f, of %d untraced passes%s)"
    r.label (Stats.median passes)
    (Stats.median (List.map fst r.passes_ms))
    (Stats.median (List.map snd r.passes_ms))
    (List.length r.passes_ms)
    (if List.length r.passes_ms > 12 then ""
     else
       ": "
       ^ String.concat ", "
           (List.map (fun (ms, f) -> Printf.sprintf "%.1f x %.3f" ms f) r.passes_ms));
  pr "%-16s %s" (r.label ^ "_p90")
    (match Stats.tail ~q:0.9 passes with
    | Ok v -> Printf.sprintf "%12.3f ms   (speed-adjusted, n=%d)" v (List.length passes)
    | Error e -> e);
  pr "sim_latency_ms   %12.6f ms   (simulated by the cost model, not measured)" r.sim_ms;
  pr "fail_rate        %12.6f      (%d of %d distinct kernels failed in some pass)"
    (ratio (failed r.t) (attempted r.t)) (failed r.t) (attempted r.t);
  pr "peak_heap_mb     %12.1f MB" (peak_heap_mb ());
  (* One line per (network, node, reason), over the optimizer seeds it hit. *)
  let fails = Hashtbl.create 8 in
  Hashtbl.iter
    (fun (net, node, opt_seed, why) n ->
      let key = (net, node, why) in
      Hashtbl.replace fails key
        ((opt_seed, n) :: Option.value (Hashtbl.find_opt fails key) ~default:[]))
    r.t.hits;
  Hashtbl.fold (fun k v acc -> (k, List.sort compare v) :: acc) fails []
  |> List.sort compare
  |> List.iter (fun ((net, node, why), hits) ->
         pr "FAIL workload=%s network=%s node=%s seed=%d optimizer_seed=%s (%d time(s)): %s"
           a.wname net node a.seed
           (String.concat "," (List.map (fun (s, _) -> string_of_int s) hits))
           (List.fold_left (fun acc (_, n) -> acc + n) 0 hits)
           why);
  List.iter (pr "NONDETERMINISTIC %s") r.nondeterministic;
  let human_ok = r.human () in
  if a.trace then begin
    let untraced = Stats.median (List.map fst r.passes_ms) and traced = Stats.median r.traced_ms in
    pr "tracing overhead: traced pass %.3f ms vs untraced %.3f ms: %+.3f ms (%+.2f%%)" traced
      untraced (traced -. untraced) ((traced -. untraced) /. untraced *. 100.0)
  end;
  human_ok

let main a =
  let jobs = Parallel.Pool.default_jobs () and nproc = Domain.recommended_domain_count () in
  if jobs > nproc then begin
    prerr_endline
      (Printf.sprintf "perfbench: GENSOR_JOBS=%d exceeds the %d available CPUs" jobs nproc);
    exit 2
  end;
  pr "perfbench workload=%s seed=%d seconds=%g trace=%d device=%s jobs=%d nproc=%d" a.wname
    a.seed a.seconds (Bool.to_int a.trace) (Hardware.Gpu_spec.name hw) jobs nproc;
  mkdir_p out_root;
  let dir = Filename.concat out_root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  rm_rf dir;
  mkdir_p dir;
  (* Scratch stores go however the run ends, a signal included. *)
  at_exit (fun () -> rm_rf dir);
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigint; Sys.sigterm ];
  let checks = selftest () in
  List.iter (fun (name, ok) -> pr "selftest %-4s %s" (if ok then "ok" else "FAIL") name) checks;
  let selftest_ok = List.for_all snd checks in
  Spans.set_enabled a.trace;
  let method_for seed =
    Pipeline.Methods.gensor ~config:{ Gensor.Optimizer.default_config with seed } ()
  in
  let r =
    match a.workload with
    | Networks_cold -> networks ~a ~base:(method_for a.seed) ~dir ~warm:false
    | Networks_warm -> networks ~a ~base:(method_for a.seed) ~dir ~warm:true
    | Exec_verify -> exec_verify ~a ~method_for ~dir
  in
  let human_ok = report a r in
  if a.trace then begin
    let path = Filename.concat out_root (Printf.sprintf "spans-%s-seed%d.json" a.wname a.seed) in
    Spans.write path;
    pr "spans written to %s" path
  end;
  let correct = selftest_ok && human_ok && r.nondeterministic = [] in
  let metrics =
    if a.trace then r.layer_metrics
    else
      [ m "setup_s" "s" (adjusted r.setup_s r.setup_speed);
        m "pass_ms" "ms" (Stats.median (adjusted_passes r.passes_ms));
        m "sim_latency_ms" "ms" r.sim_ms;
        m "peak_heap_mb" "MB" (peak_heap_mb ()) ]
  in
  match List.filter (fun x -> not (Float.is_finite x.value)) metrics with
  | [] -> print_result ~correct ~t:r.t metrics
  | undefined ->
    prerr_endline
      (Printf.sprintf "perfbench: no denominator on %s for %s" a.wname
         (String.concat ", " (List.map (fun x -> x.mname) undefined)));
    exit 1

let () =
  match parse_args Sys.argv with
  | Error e ->
    prerr_endline ("perfbench: " ^ e);
    exit 2
  | Ok a -> main a
