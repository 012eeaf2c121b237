(** The benchmark's own spans, recorded around each call into a layer.

    Spans live in memory (name, start, end, parent) and are written once,
    at exit.  When recording is off, {!span} is just the call.  Only the
    main domain records: the layer split assumes the default
    [GENSOR_JOBS=1], under which the runner compiles on the main domain. *)

type t = { id : int; name : string; parent : int; start : float; stop : float }

(** Turn recording on or off (off at start). *)
val set_enabled : bool -> unit

val enabled : unit -> bool

(** [span name f] runs [f], recording a span named [name] whose parent is
    the innermost open span. *)
val span : string -> (unit -> 'a) -> 'a

(** Every finished span, in start order. *)
val all : unit -> t list

(** Duration in milliseconds. *)
val ms : t -> float

(** [rollup root] maps each layer name to its total and self time (ms)
    over [root]'s descendants; self time is a span's duration minus the
    time its children cover.  [root]'s own self time is returned apart as
    the unattributed remainder. *)
val rollup : t -> (string * (float * float)) list * float

(** Write every span as JSON ([{"spans": [...]}], microseconds since the
    first span). *)
val write : string -> unit
