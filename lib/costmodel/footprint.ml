(* Memory footprints of ETIR tiles, by interval analysis of the compute
   definition's accesses.

   The footprint of a level-[l] tile is the number of bytes its data slice
   occupies in the level-[l] memory: the paper's [F(T)] (Eq. 1 denominator)
   and the quantity checked against cache capacity. *)

open Tensor_lang

(* Per-input footprint of one representative level-[level] tile, in
   elements.  Epilogue operands (bias vectors, residual tensors) are staged
   like body operands; the accumulator read is excluded by
   [Compute.epilogue_accesses].  The interval analysis runs over the
   compute's footprint plan (built once per compute, see
   Tensor_lang.Footprint_plan) and the level's effective tiles. *)
let input_elems etir ~level =
  Footprint_plan.input_elems
    (Sched.Etir.footprint_plan etir)
    (Sched.Etir.eff_tiles etir ~level)

let input_bytes_of_plan etir ~level =
  Footprint_plan.input_bytes
    (Sched.Etir.footprint_plan etir)
    (Sched.Etir.eff_tiles etir ~level)

(* One-shot analyses (verify, codegen, Mem_check, Roller, the eager benefit
   path) ask for the same (state, level) footprints repeatedly, so their
   entry point is memoized process-wide, keyed by the state's structural
   fingerprint (collision-checked with Etir.eval_equal — see
   lib/parallel/memo.ml).  The incremental engine (Delta) carries
   footprints edge to edge and evaluates the plan directly instead: its
   lookups would nearly all miss. *)
let input_bytes_memo : (Sched.Etir.t * int, int) Parallel.Memo.t =
  Parallel.Memo.create ~name:"footprint"
    ~hash:(fun (etir, level) ->
      (Int64.to_int (Sched.Etir.fingerprint etir) lxor (level * 0x9E3779B1))
      land max_int)
    ~equal:(fun (a, la) (b, lb) -> la = lb && Sched.Etir.eval_equal a b)
    ()

let input_bytes etir ~level =
  Parallel.Memo.find_or_add input_bytes_memo (etir, level) (fun () ->
      input_bytes_of_plan etir ~level)

(* Output-accumulator footprint of a level-[level] tile: the spatial tile's
   elements in the output dtype. *)
let output_bytes etir ~level =
  let compute = Sched.Etir.compute etir in
  let n = Sched.Etir.num_spatial etir in
  let elems = ref 1 in
  for dim = 0 to n - 1 do
    elems := !elems * Sched.Etir.stile_eff etir ~level ~dim
  done;
  !elems * Dtype.size_bytes (Compute.out_dtype compute)

(* Footprint charged against the capacity of each memory level.  Registers
   (level 0) hold the thread's input slices plus its output accumulator;
   shared memory stages input slices only (accumulators stay in registers);
   outer caches hold both. *)
let bytes_at etir ~level =
  if level = 1 then input_bytes etir ~level
  else input_bytes etir ~level + output_bytes etir ~level

let all_levels etir =
  Array.init (Sched.Etir.num_levels etir + 1) (fun level ->
      bytes_at etir ~level)
