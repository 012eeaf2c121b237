(** Compiled execution tier: an ETIR schedule lowered to a flat
    register-based bytecode program (pre-resolved axis slots, precomputed
    row-major strides, and a reduction walk over the reduce dims of extent
    > 1 that computes operand offsets once per output element and steps
    them into specialised multiply-accumulate / fold loops), run by a
    tight dispatch-loop VM.

    Visit and accumulation order are identical to {!Scheduled.run} — the
    interpreter stays the differential-testing oracle, and results are
    bit-identical to it.  The bytecode ISA and compilation scheme are documented
    in DESIGN.md §15. *)

type t
(** A compiled program for one schedule. *)

(** Lower a schedule's tiled loop nest to bytecode.  Raises
    [Invalid_argument] on a body variable that is not an axis or a read of
    an undeclared tensor (both already rejected by [Compute.v]). *)
val compile : Sched.Etir.t -> t

(** Run a compiled program.  Input tensors are matched by name and
    validated against the declared shapes ([Invalid_argument] on a missing
    input or shape mismatch).  Produces the same result type as
    {!Scheduled.run}, including the per-element coverage tensor. *)
val run_compiled : t -> (string * Tensor.t) list -> Scheduled.result

(** [run etir inputs] is [run_compiled (compile etir) inputs].  Compilation
    is microseconds; amortise it with {!compile} + {!run_compiled} only in
    tight re-execution loops. *)
val run : Sched.Etir.t -> (string * Tensor.t) list -> Scheduled.result

(** One-line program summary: site/instruction counts, stripe kernel, the
    walked reduce dims (e.g. [reduce walk [c] 1/3 dims]) and whether
    offsets are hoisted out of the walk or re-derived per point. *)
val pp : t Fmt.t
