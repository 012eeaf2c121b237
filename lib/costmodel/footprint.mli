(** Tile memory footprints via interval analysis — the paper's [F(T)].

    Levels use ETIR numbering: 0 = per-thread registers, 1 = shared memory,
    2+ = outer caches. *)

(** Per-input-access footprint of a representative level tile, in elements. *)
val input_elems : Sched.Etir.t -> level:int -> (string * int) list

(** Input bytes of a representative level tile, memoized process-wide
    (the ["footprint"] cache) for one-shot analyses. *)
val input_bytes : Sched.Etir.t -> level:int -> int

(** [input_bytes] evaluated straight from the footprint plan, bypassing the
    memo — for the incremental engine, which carries footprints edge to
    edge and would nearly always miss. *)
val input_bytes_of_plan : Sched.Etir.t -> level:int -> int

(** Output-accumulator bytes of the level's spatial tile. *)
val output_bytes : Sched.Etir.t -> level:int -> int

(** Footprint charged against the level's capacity: inputs plus accumulator
    except at the shared-memory level (accumulators live in registers). *)
val bytes_at : Sched.Etir.t -> level:int -> int

(** [all_levels etir] is [bytes_at] for every level, index = level. *)
val all_levels : Sched.Etir.t -> int array
