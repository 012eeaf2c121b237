(** Machine-speed probe.

    On a shared machine the speed of this process's allocation-heavy work
    drifts by up to ~1.5x over tens of seconds, while the work itself
    repeats exactly.  A fixed piece of the same kind of work, owned by the
    benchmark (hash table, list sort, string map; no code of the program
    under test), takes ~2.5 ms and is timed every 50 ms of workload time,
    and a stretch of measured wall time is scaled by
    [2.5 ms / median probe time] over the same stretch.  A change to the
    program moves the measured time and leaves the probe alone; a slower
    stretch of the machine moves both. *)

(** Time the probe when at least 50 ms have gone by since the last one
    ended, or when [force] is set.  Called between units of work
    (kernel compiles, kernel runs, set-up repetitions) and after each pass. *)
val tick : ?force:bool -> unit -> unit

(** [timed f] is [f ()] with its wall time in ms, less the time probes
    took inside it. *)
val timed : (unit -> 'a) -> 'a * float

(** A point in the sequence of probe samples. *)
type mark

val mark : unit -> mark

(** [factor m] is [2.5 ms / median] of the probe times taken since [m],
    with their count; [(nan, 0)] when there were none. *)
val factor : mark -> float * int
