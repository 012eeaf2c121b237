(* Span recorder + exporters.  See the mli for the contract.

   Recording is a mutex-guarded prepend onto a global list: spans open at
   phase granularity (optimizer restarts, anneal chains, pool chunks, store
   I/O), not per policy step, so contention on the buffer lock is
   negligible next to the work inside each span.  The enabled check is an
   atomic load taken before any allocation, which is what keeps disabled
   tracing free on the hot paths. *)

module Env = Env
module Counter = Counter

type event = {
  ev_name : string;
  ev_ph : char;  (* 'B' open | 'E' close *)
  ev_ts : float; (* microseconds since the recording started *)
  ev_tid : int;  (* raw Domain id; renumbered densely at export *)
  ev_args : (string * string) list;
}

let enabled_flag = Atomic.make false
let sink : string option Atomic.t = Atomic.make None
let lock = Mutex.create ()
let events : event list ref = ref [] (* newest first *)
let epoch = ref 0.0
let enabled () = Atomic.get enabled_flag

(* Monotonic clock: gettimeofday can step backwards (NTP slew); exported
   timestamps never do.  CAS max keeps this wait-free across domains. *)
let last_ts = Atomic.make 0.0

let now_us () =
  let t = (Unix.gettimeofday () -. !epoch) *. 1e6 in
  let rec bump () =
    let last = Atomic.get last_ts in
    if t <= last then last
    else if Atomic.compare_and_set last_ts last t then t
    else bump ()
  in
  bump ()

let record ev =
  Mutex.lock lock;
  events := ev :: !events;
  Mutex.unlock lock

let set_output = function
  | None ->
    Atomic.set enabled_flag false;
    Atomic.set sink None;
    Mutex.lock lock;
    events := [];
    Mutex.unlock lock
  | Some path ->
    Mutex.lock lock;
    events := [];
    epoch := Unix.gettimeofday ();
    Mutex.unlock lock;
    Atomic.set last_ts 0.0;
    Atomic.set sink (Some path);
    Atomic.set enabled_flag true

let parse_spec s =
  match String.lowercase_ascii (String.trim s) with
  | "" | "off" | "0" -> None
  | _ -> Some (String.trim s)

let with_span ?(args = []) ~name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let tid = (Domain.self () :> int) in
    record
      { ev_name = name; ev_ph = 'B'; ev_ts = now_us (); ev_tid = tid;
        ev_args = List.sort (fun (a, _) (b, _) -> String.compare a b) args };
    Fun.protect
      ~finally:(fun () ->
        record
          { ev_name = name; ev_ph = 'E'; ev_ts = now_us (); ev_tid = tid;
            ev_args = [] })
      f
  end

let recorded_events () =
  Mutex.lock lock;
  let n = List.length !events in
  Mutex.unlock lock;
  n

(* ---------- export ---------- *)

(* Chronological order with raw domain ids renumbered densely by first
   appearance, then grouped per lane (stable, so program order within a
   lane is preserved).  Lane grouping is what makes two runs of the same
   sequential workload diff cleanly: the structure is a function of the
   work, only [ts] varies. *)
let ordered_events () =
  Mutex.lock lock;
  let evs = List.rev !events in
  Mutex.unlock lock;
  let tids : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let dense raw =
    match Hashtbl.find_opt tids raw with
    | Some d -> d
    | None ->
      let d = Hashtbl.length tids in
      Hashtbl.add tids raw d;
      d
  in
  let evs = List.map (fun ev -> (dense ev.ev_tid, ev)) evs in
  List.stable_sort (fun (a, _) (b, _) -> compare a b) evs

(* Final counter values ride along as Chrome counter ('C') events so the
   registry is readable straight from the trace file. *)
let chrome_json () =
  let event ~name ~ph ~ts ~tid args =
    Json.(
      Obj
        ([ ("name", Str name); ("cat", Str "gensor"); ("ph", Str ph);
           ("ts", Num ts); ("pid", Num 1.); ("tid", Num (float_of_int tid)) ]
        @ if args = [] then [] else [ ("args", Obj args) ]))
  in
  let spans =
    List.map
      (fun (tid, ev) ->
        event ~name:ev.ev_name ~ph:(String.make 1 ev.ev_ph) ~ts:ev.ev_ts ~tid
          (List.map (fun (k, v) -> (k, Json.Str v)) ev.ev_args))
      (ordered_events ())
  in
  let counters =
    List.map
      (fun (name, value) ->
        event ~name ~ph:"C" ~ts:(Atomic.get last_ts) ~tid:0
          [ ("value", Json.Num (float_of_int value)) ])
      (Counter.snapshot ())
  in
  Json.(
    to_string
      (Obj [ ("traceEvents", Arr (spans @ counters)); ("displayTimeUnit", Str "ms") ]))
  ^ "\n"

(* Flat text summary: per-span aggregates in name order, then the counter
   registry.  Self-contained replacement for grepping N ad-hoc stat
   printouts. *)
let text_summary () =
  let evs = ordered_events () in
  let totals : (string, float * int) Hashtbl.t = Hashtbl.create 32 in
  let stacks : (int, (string * float) list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (tid, ev) ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
      match ev.ev_ph with
      | 'B' -> Hashtbl.replace stacks tid ((ev.ev_name, ev.ev_ts) :: stack)
      | 'E' -> (
        match stack with
        | (name, t0) :: rest when String.equal name ev.ev_name ->
          Hashtbl.replace stacks tid rest;
          let total, count =
            Option.value ~default:(0.0, 0) (Hashtbl.find_opt totals name)
          in
          Hashtbl.replace totals name (total +. (ev.ev_ts -. t0), count + 1)
        | _ -> ())
      | _ -> ())
    evs;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "# gensor trace summary\n";
  Buffer.add_string buf
    (Printf.sprintf "%-40s %8s %14s\n" "span" "count" "total_ms");
  Hashtbl.fold (fun name agg acc -> (name, agg) :: acc) totals []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, (total, count)) ->
         Buffer.add_string buf
           (Printf.sprintf "%-40s %8d %14.3f\n" name count (total /. 1e3)));
  Buffer.add_string buf "\n";
  Buffer.add_string buf (Printf.sprintf "%-40s %14s\n" "counter" "value");
  List.iter
    (fun (name, value) ->
      Buffer.add_string buf (Printf.sprintf "%-40s %14d\n" name value))
    (Counter.snapshot ());
  Buffer.contents buf

let flush () =
  if not (Atomic.get enabled_flag) then None
  else
    match Atomic.get sink with
    | None -> None
    | Some path ->
      let body =
        if Filename.check_suffix path ".json" then chrome_json ()
        else text_summary ()
      in
      Atomic.set enabled_flag false;
      Atomic.set sink None;
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc body);
      Mutex.lock lock;
      events := [];
      Mutex.unlock lock;
      Some path

(* ---------- validation ---------- *)

type validation = {
  v_events : int;
  v_spans : int;
  v_counters : int;
  v_tids : int;
}

(* Replays every lane's B/E stack over the parsed [traceEvents] array. *)
let validate_file path =
  let ( let* ) = Result.bind in
  let* doc =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error m -> Error m
    | body ->
      Result.map_error (Printf.sprintf "%s: %s" path) (Json.parse body)
  in
  let* events =
    match Json.(to_list (member "traceEvents" doc)) with
    | None -> Error (path ^ ": no traceEvents array")
    | Some [] -> Error (path ^ ": no trace events")
    | Some evs -> Ok evs
  in
  (* Every lane that carries an event has an entry, open spans or not. *)
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let spans = ref 0 and counters = ref 0 in
  let exception Invalid of string in
  let step i ev =
    let str key =
      Option.value ~default:"" Json.(to_string_opt (member key ev))
    in
    let name = str "name" in
    let tid =
      Option.fold ~none:0 ~some:int_of_float Json.(to_float (member "tid" ev))
    in
    let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
    Hashtbl.replace stacks tid stack;
    let fail fmt =
      Printf.ksprintf
        (fun m -> raise (Invalid (Printf.sprintf "%s: event %d: %s" path i m)))
        fmt
    in
    match (str "ph", stack) with
    | "B", _ -> Hashtbl.replace stacks tid (name :: stack)
    | "E", top :: below when String.equal top name ->
      incr spans;
      Hashtbl.replace stacks tid below
    | "E", top :: _ ->
      fail "E %S does not close the open span %S (tid %d)" name top tid
    | "E", [] -> fail "E %S with no open span (tid %d)" name tid
    | "C", _ -> incr counters
    | other, _ -> fail "unknown phase %S" other
  in
  let open_lane tid stack acc = if stack <> [] then Some (tid, stack) else acc in
  match List.iteri step events; Hashtbl.fold open_lane stacks None with
  | exception Invalid m -> Error m
  | Some (tid, stack) ->
    Error
      (Printf.sprintf "%s: %d span(s) left open on tid %d (deepest %S)" path
         (List.length stack) tid (List.hd stack))
  | None ->
    Ok
      { v_events = List.length events; v_spans = !spans;
        v_counters = !counters; v_tids = Hashtbl.length stacks }

(* Self-configuration: GENSOR_TRACE=<path> starts a recording in any
   binary that links this library; flush is guaranteed at exit. *)
let () =
  (match Env.string "GENSOR_TRACE" with
  | Some spec -> set_output (parse_spec spec)
  | None -> ());
  at_exit (fun () -> ignore (flush () : string option))
