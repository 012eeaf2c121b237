(** Zero-dependency tracing and metrics for the construction pipeline.

    A process-wide span recorder ({!with_span}) with monotonic timestamps
    and domain ids, safe under the [Parallel.Pool] domains, plus the
    unified {!Counter} registry every layer reports through, plus two
    exporters:

    - Chrome [trace_event] JSON (open in [chrome://tracing] or Perfetto)
      when the output path ends in [.json];
    - a flat text summary (per-span count/total time, counter values)
      otherwise.

    Output is selected by the [GENSOR_TRACE] environment variable
    ([<path>] to enable, unset/[""]/["off"]/["0"] to disable) or
    programmatically via {!set_output} (the CLI's [--trace FILE]).  The
    trace is written by {!flush}, which is also registered [at_exit].

    Disabled tracing is a no-op: {!with_span} costs one atomic load, so
    instrumented hot paths are unaffected when no trace is requested.

    Determinism: pids are fixed, domain ids are renumbered densely in
    order of first appearance, events are grouped per thread in program
    order and args are key-sorted — so two sequential runs of the same
    workload produce traces that diff cleanly on everything but the [ts]
    fields. *)

module Env = Env
module Counter = Counter

(** Is a trace being recorded? *)
val enabled : unit -> bool

(** [set_output (Some path)] starts a fresh recording destined for [path];
    [set_output None] discards any recording and disables tracing. *)
val set_output : string option -> unit

(** [parse_spec s] interprets a [GENSOR_TRACE]-style value: [None] for
    [""], ["off"] or ["0"], [Some path] otherwise. *)
val parse_spec : string -> string option

(** [with_span ~name ~args f] runs [f] inside a span.  The close event is
    recorded even when [f] raises, so traces stay balanced.  [args] should
    be deterministic across runs (no timestamps, no pointers). *)
val with_span : ?args:(string * string) list -> name:string -> (unit -> 'a) -> 'a

(** Write the recording to the configured path and disable tracing;
    returns the path written, or [None] when tracing was off.  Registered
    [at_exit], so explicit calls are only needed to report the path or to
    bound the trace before process end. *)
val flush : unit -> string option

(** Number of events recorded so far (tests). *)
val recorded_events : unit -> int

(** {2 Validation} *)

type validation = {
  v_events : int;    (** B/E/C events in the file *)
  v_spans : int;     (** matched B/E pairs *)
  v_counters : int;  (** counter (C) events *)
  v_tids : int;      (** distinct thread lanes *)
}

(** Parse a Chrome-format trace file and replay its [traceEvents]: phases
    are [B], [E] or [C], and every [E] closes the [B] on top of its
    thread's stack.  Used by the test suite and [gensor trace check]. *)
val validate_file : string -> (validation, string) result
