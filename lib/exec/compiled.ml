(* Compiled execution tier: an ETIR schedule lowered to a flat
   register-based bytecode program, run by a tight dispatch-loop VM.

   The tree-walking interpreter ([Scheduled.run]) pays a string-keyed env
   lookup per variable, a [List.assoc_opt] per tensor read and a
   list-allocated coordinate per element.  This tier removes all of that at
   compile time (TVM's core move of lowering loop nests instead of
   interpreting them):

   - every loop variable gets a fixed integer slot ([vars] array);
   - every distinct tensor access becomes a {e read site} whose flat
     row-major offset is computed by a small integer program into a
     dedicated offset register — affine accesses collapse to one [IAFF]
     (base + Sigma coeff*var) instruction with precomputed strides;
   - the scalar body becomes a float register program over those offset
     registers, with direct unsafe loads from the input buffers;
   - the reduction is one walk over the reduce dims of extent > 1: when
     every body site is affine, the offset program runs once per output
     element and each walked dim advances the offsets by its precomputed
     per-site step, and the two ubiquitous reduction bodies
     (multiply-accumulate and single-read fold) are recognised at compile
     time and run as dedicated unsafe float-array loops.

   The spatial loop nest (blocks / logical units / vthread stripes)
   mirrors [Scheduled.run] exactly, so both tiers visit exactly the same
   output elements; the interpreter's chunked reduction loops are folded
   into the flat walk (see [reduce] below) without changing the
   accumulation order, so results are bit-identical and [Scheduled.run]
   stays the differential-testing oracle.  Unsafe array accesses are
   sound because [Compute.v] validates every access's bounding region
   over the full iteration domain against the declared tensor shapes, and
   [check_inputs] re-validates the actual input shapes against the
   declaration at run time. *)

open Tensor_lang
open Sched

(* ---------- bytecode ISA (documented in DESIGN.md §15) ---------- *)

(* Integer stream (offset computation; operands follow the opcode):
     ICONST dst k            iregs.(dst) <- k
     IVAR   dst slot         iregs.(dst) <- vars.(slot)
     IADD   dst a b          iregs.(dst) <- iregs.(a) + iregs.(b)
     ISUB   dst a b
     IMUL   dst a b
     IDIV   dst a b          floor division, positive divisor
     IMOD   dst a b          floor modulo, positive divisor
     IMIN   dst a b
     IMAX   dst a b
     IADDK  dst a k          iregs.(dst) <- iregs.(a) + k
     IMULK  dst a k          iregs.(dst) <- iregs.(a) * k
     IAFF   dst t base (slot coeff){t}
                             iregs.(dst) <- base + Sigma vars.(slot)*coeff *)
let iconst = 0
and ivar = 1
and iadd = 2
and isub = 3
and imul = 4
and idiv = 5
and imod = 6
and imin = 7
and imax = 8
and iaddk = 9
and imulk = 10
and iaff = 11

(* Float stream (body / epilogue evaluation):
     FCONST dst pool         fregs.(dst) <- fpool.(pool)
     FLOAD  dst tensor off   fregs.(dst) <- data.(tensor).(iregs.(off))
     FNEG   dst a
     FADD   dst a b … FMIN   dst a b    arithmetic on fregs
     FACC   dst              fregs.(dst) <- the reduced+scaled accumulator
                             (the epilogue's shadowed output read) *)
let fconst = 0
and fload = 1
and fneg = 2
and fadd = 3
and fsub = 4
and fmul = 5
and fdiv = 6
and fmax' = 7
and fmin' = 8
and facc = 9

(* Reduction-walk specialisation, chosen at compile time. *)
type kernel =
  | Mac of int * int  (* acc <- acc + t_a[o_a] * t_b[o_b]; the GEMM/conv body *)
  | Fold of int       (* acc <- combine acc t_a[o_a]; pooling / elementwise *)
  | Generic           (* dispatch the body program per element *)

type t = {
  compute : Compute.t;
  n : int;  (* spatial dims *)
  m : int;  (* reduce dims *)
  sext : int array;
  rext : int array;
  walk : int array;
      (* the reduce dims the walk visits, outermost first: those of extent
         > 1 in their original order, or the last one if none is *)
  bsize : int array;
  stripe : int array;
  units : int array;
  init : float;
  scale : float;
  sum : bool;  (* combine = Sum *)
  tensors : string array;  (* tensor id -> input name *)
  tshapes : int list array;
  n_sites : int;  (* read sites; iregs.(site) holds the site's offset *)
  site_tensor : int array;
  body_idx : int array;  (* int program: body site offsets from vars *)
  epi_idx : int array;  (* int program: epilogue site offsets *)
  deltas : int array array option;
      (* [deltas.(k).(site)]: the offset step of body site [site] per unit
         of walked dim [k]; present iff the compute reduces and every body
         site is affine, so offsets are computed once per output element
         and stepped through the walk *)
  body_code : int array;  (* float program; value lands in freg 0 *)
  epi_code : int array option;
  fpool : float array;
  n_iregs : int;
  n_fregs : int;
  kernel : kernel;
  out_strides : int array;
}

let ceil_div a b = (a + b - 1) / b

(* ---------- counters ---------- *)

let c_programs = Trace.Counter.make "exec.compiled.programs"
let c_runs = Trace.Counter.make "exec.compiled.runs"
let c_points = Trace.Counter.make "exec.compiled.points"
let c_elements = Trace.Counter.make "exec.compiled.elements"

(* ---------- affine analysis ---------- *)

(* [affine ix] is [Some (base, terms)] when [ix = base + Sigma coeff*var]
   with each variable occurring once in [terms]; [None] otherwise (Div,
   Mod, Min, Max, or a product of two variable-bearing operands). *)
let rec affine ix =
  let merge t1 t2 =
    List.fold_left
      (fun acc (v, c) ->
        match List.assoc_opt v acc with
        | None -> (v, c) :: acc
        | Some c0 -> (v, c0 + c) :: List.remove_assoc v acc)
      t1 t2
  in
  let lift2 f a b =
    match (affine a, affine b) with
    | Some (ba, ta), Some (bb, tb) -> f (ba, ta) (bb, tb)
    | _ -> None
  in
  match ix with
  | Index.Const c -> Some (c, [])
  | Index.Var v -> Some (0, [ (v, 1) ])
  | Index.Add (a, b) ->
    lift2 (fun (ba, ta) (bb, tb) -> Some (ba + bb, merge ta tb)) a b
  | Index.Sub (a, b) ->
    lift2
      (fun (ba, ta) (bb, tb) ->
        Some (ba - bb, merge ta (List.map (fun (v, c) -> (v, -c)) tb)))
      a b
  | Index.Mul (a, b) ->
    lift2
      (fun (ba, ta) (bb, tb) ->
        match (ta, tb) with
        | [], _ -> Some (ba * bb, List.map (fun (v, c) -> (v, ba * c)) tb)
        | _, [] -> Some (ba * bb, List.map (fun (v, c) -> (v, bb * c)) ta)
        | _ -> None)
      a b
  | Index.Div _ | Index.Mod _ | Index.Min _ | Index.Max _ -> None

(* ---------- compiler ---------- *)

type site = { s_tensor : int; s_access : Access.t; s_affine : (int * int array) option }

type ctx = {
  slot_of : string -> int;  (* loop variable -> vars slot *)
  n_slots : int;
  tensor_of : string -> int;
  tensor_strides : int array array;  (* tensor id -> row-major strides *)
  mutable sites : site list;  (* reversed; site id = position *)
  mutable n_sites_c : int;
  mutable pool : float list;  (* reversed float constant pool *)
  mutable n_pool : int;
  mutable max_ireg : int;
  mutable max_freg : int;
}

let touch_ireg ctx r = if r >= ctx.max_ireg then ctx.max_ireg <- r + 1
let touch_freg ctx r = if r >= ctx.max_freg then ctx.max_freg <- r + 1

let pool_const ctx f =
  ctx.pool <- f :: ctx.pool;
  ctx.n_pool <- ctx.n_pool + 1;
  ctx.n_pool - 1

(* Emission into a reversed int list; [program] materialises the array. *)
let emit buf ints = buf := List.rev_append ints !buf
let program buf = Array.of_list (List.rev !buf)

(* Compile an index expression into [dst], using dst, dst+1, ... as an
   evaluation stack.  Constant operands fold into IADDK/IMULK. *)
let rec compile_index ctx buf dst ix =
  touch_ireg ctx dst;
  let binop op a b =
    compile_index ctx buf dst a;
    compile_index ctx buf (dst + 1) b;
    emit buf [ op; dst; dst; dst + 1 ]
  in
  match ix with
  | Index.Const c -> emit buf [ iconst; dst; c ]
  | Index.Var v -> emit buf [ ivar; dst; ctx.slot_of v ]
  | Index.Add (a, Index.Const c) | Index.Add (Index.Const c, a) ->
    compile_index ctx buf dst a;
    emit buf [ iaddk; dst; dst; c ]
  | Index.Sub (a, Index.Const c) ->
    compile_index ctx buf dst a;
    emit buf [ iaddk; dst; dst; -c ]
  | Index.Mul (a, Index.Const c) | Index.Mul (Index.Const c, a) ->
    compile_index ctx buf dst a;
    emit buf [ imulk; dst; dst; c ]
  | Index.Add (a, b) -> binop iadd a b
  | Index.Sub (a, b) -> binop isub a b
  | Index.Mul (a, b) -> binop imul a b
  | Index.Div (a, b) -> binop idiv a b
  | Index.Mod (a, b) -> binop imod a b
  | Index.Min (a, b) -> binop imin a b
  | Index.Max (a, b) -> binop imax a b

(* The flat offset of [access] as an affine form over vars slots, when
   every index dimension is affine. *)
let access_affine ctx tensor access =
  let strides = ctx.tensor_strides.(tensor) in
  let rec go d base coeffs = function
    | [] -> Some (base, coeffs)
    | ix :: rest -> (
      match affine ix with
      | None -> None
      | Some (b, terms) ->
        let s = strides.(d) in
        List.iter
          (fun (v, c) ->
            let slot = ctx.slot_of v in
            coeffs.(slot) <- coeffs.(slot) + (c * s))
          terms;
        go (d + 1) (base + (b * s)) coeffs rest)
  in
  go 0 0 (Array.make ctx.n_slots 0) (Access.indices access)

(* Register a read site (dedup on structurally identical accesses) and
   return its id; its offset register is the id itself. *)
let site_of ctx access =
  let tensor = ctx.tensor_of (Access.tensor access) in
  let existing =
    let rec find i = function
      | [] -> None
      | s :: rest ->
        if s.s_tensor = tensor && s.s_access = access then
          Some (ctx.n_sites_c - 1 - i)
        else find (i + 1) rest
    in
    find 0 ctx.sites
  in
  match existing with
  | Some id -> id
  | None ->
    let id = ctx.n_sites_c in
    ctx.sites <-
      { s_tensor = tensor; s_access = access;
        s_affine = access_affine ctx tensor access }
      :: ctx.sites;
    ctx.n_sites_c <- id + 1;
    touch_ireg ctx id;
    id

(* Emit the offset computation of site [id] ([s]) into its offset
   register. *)
let compile_site_offset ctx buf scratch id s =
  match s.s_affine with
  | Some (base, coeffs) ->
    let terms = ref [] in
    Array.iteri
      (fun slot c -> if c <> 0 then terms := (slot, c) :: !terms)
      coeffs;
    let terms = List.rev !terms in
    emit buf [ iaff; id; List.length terms; base ];
    List.iter (fun (slot, c) -> emit buf [ slot; c ]) terms
  | None ->
    let strides = ctx.tensor_strides.(s.s_tensor) in
    emit buf [ iconst; id; 0 ];
    List.iteri
      (fun d ix ->
        match ix with
        | Index.Const c -> emit buf [ iaddk; id; id; c * strides.(d) ]
        | _ ->
          compile_index ctx buf scratch ix;
          emit buf [ imulk; scratch; scratch; strides.(d) ];
          emit buf [ iadd; id; id; scratch ])
      (Access.indices s.s_access)

(* Compile a scalar expression into float register [dst] (stack
   discipline as for indices).  [acc_tensor] names the tensor whose reads
   mean "the accumulator" (the epilogue's shadowed output); body
   compilation passes [None]. *)
let rec compile_expr ctx buf ~acc_tensor dst expr =
  touch_freg ctx dst;
  let binop op a b =
    compile_expr ctx buf ~acc_tensor dst a;
    compile_expr ctx buf ~acc_tensor (dst + 1) b;
    emit buf [ op; dst; dst; dst + 1 ]
  in
  match expr with
  | Expr.Imm f -> emit buf [ fconst; dst; pool_const ctx f ]
  | Expr.Read access when acc_tensor = Some (Access.tensor access) ->
    emit buf [ facc; dst ]
  | Expr.Read access ->
    let id = site_of ctx access in
    let tensor = ctx.tensor_of (Access.tensor access) in
    emit buf [ fload; dst; tensor; id ]
  | Expr.Neg a ->
    compile_expr ctx buf ~acc_tensor dst a;
    emit buf [ fneg; dst; dst ]
  | Expr.Add (a, b) -> binop fadd a b
  | Expr.Sub (a, b) -> binop fsub a b
  | Expr.Mul (a, b) -> binop fmul a b
  | Expr.Div (a, b) -> binop fdiv a b
  | Expr.Max (a, b) -> binop fmax' a b
  | Expr.Min (a, b) -> binop fmin' a b

let compile etir =
  Trace.with_span ~name:"exec.compile" @@ fun () ->
  Trace.Counter.incr c_programs;
  let compute = Etir.compute etir in
  let spatial = Array.of_list (Compute.spatial_axes compute) in
  let reduce = Array.of_list (Compute.reduce_axes compute) in
  let n = Array.length spatial and m = Array.length reduce in
  let sext = Array.map Axis.extent spatial in
  let rext = Array.map Axis.extent reduce in
  let bsize = Array.init n (fun i -> Etir.stile_eff etir ~level:1 ~dim:i) in
  let tsize = Array.init n (fun i -> Etir.stile etir ~level:0 ~dim:i) in
  let vths = Array.init n (fun i -> Etir.vthread etir ~dim:i) in
  let stripe = Array.init n (fun i -> ceil_div tsize.(i) vths.(i)) in
  let units =
    Array.init n (fun i -> ceil_div bsize.(i) tsize.(i) * vths.(i))
  in
  (* Loop-variable slots: spatial 0..n-1, reduce n..n+m-1. *)
  let slot_of name =
    let rec find i arr base =
      if i = Array.length arr then None
      else if Axis.name arr.(i) = name then Some (base + i)
      else find (i + 1) arr base
    in
    match find 0 spatial 0 with
    | Some s -> s
    | None -> (
      match find 0 reduce n with
      | Some s -> s
      | None -> invalid_arg (Fmt.str "Compiled: unbound variable %s" name))
  in
  let inputs = Array.of_list (Compute.inputs compute) in
  let tensors = Array.map (fun i -> i.Compute.in_name) inputs in
  let tshapes = Array.map (fun i -> i.Compute.in_shape) inputs in
  let tensor_of name =
    let rec find i =
      if i = Array.length tensors then
        invalid_arg (Fmt.str "Compiled: read of undeclared tensor %s" name)
      else if tensors.(i) = name then i
      else find (i + 1)
    in
    find 0
  in
  let strides_of shape =
    let a = Array.of_list shape in
    let k = Array.length a in
    let st = Array.make k 1 in
    for i = k - 2 downto 0 do
      st.(i) <- st.(i + 1) * a.(i + 1)
    done;
    st
  in
  let ctx =
    { slot_of; n_slots = n + m; tensor_of;
      tensor_strides = Array.map strides_of tshapes;
      sites = []; n_sites_c = 0; pool = []; n_pool = 0;
      max_ireg = 0; max_freg = 0 }
  in
  (* Body: float program first (registers its read sites), then the int
     program computing those sites' offsets. *)
  let body_buf = ref [] in
  compile_expr ctx body_buf ~acc_tensor:None 0 (Compute.body compute);
  let body_sites = ctx.n_sites_c in
  (* Epilogue: reads of the output tensor become FACC, everything else is
     a regular site (over spatial variables only, per validation). *)
  let epi_code =
    match Compute.epilogue compute with
    | None -> None
    | Some e ->
      let buf = ref [] in
      compile_expr ctx buf ~acc_tensor:(Some (Compute.out_name compute)) 0 e;
      Some (program buf)
  in
  (* Offset programs: scratch registers live above the site registers. *)
  let sites = Array.of_list (List.rev ctx.sites) in
  let scratch = ctx.n_sites_c in
  touch_ireg ctx scratch;
  let body_idx_buf = ref [] in
  for id = 0 to body_sites - 1 do
    compile_site_offset ctx body_idx_buf scratch id sites.(id)
  done;
  let epi_idx_buf = ref [] in
  for id = body_sites to ctx.n_sites_c - 1 do
    compile_site_offset ctx epi_idx_buf scratch id sites.(id)
  done;
  (* The reduction walk skips unit-extent dims: their variable stays 0,
     so dropping them changes neither the points visited nor their
     order. *)
  let walk =
    match List.filter (fun j -> rext.(j) > 1) (List.init m Fun.id) with
    | [] when m > 0 -> [| m - 1 |]
    | kept -> Array.of_list kept
  in
  (* Hoisted offsets: legal when every body site is affine; the step of a
     walked dim is the coefficient of its slot. *)
  let deltas =
    let affine = Array.init body_sites (fun id -> sites.(id).s_affine) in
    if m = 0 || Array.exists Option.is_none affine then None
    else
      let coeffs = Array.map (fun a -> snd (Option.get a)) affine in
      Some (Array.map (fun j -> Array.map (fun c -> c.(n + j)) coeffs) walk)
  in
  let sum = Compute.combine compute = Compute.Sum in
  (* Walk specialisation (requires hoisted offsets). *)
  let kernel =
    if m = 0 || deltas = None then Generic
    else
      match Compute.body compute with
      | Expr.Mul (Expr.Read a, Expr.Read b) when sum ->
        Mac (site_of ctx a, site_of ctx b)
      | Expr.Read a -> Fold (site_of ctx a)
      | _ -> Generic
  in
  { compute; n; m; sext; rext; walk; bsize; stripe; units;
    init = Compute.init compute; scale = Compute.scale compute; sum;
    tensors; tshapes;
    n_sites = ctx.n_sites_c;
    site_tensor = Array.map (fun s -> s.s_tensor) sites;
    body_idx = program body_idx_buf; epi_idx = program epi_idx_buf;
    deltas; body_code = program body_buf; epi_code;
    fpool = Array.of_list (List.rev ctx.pool);
    n_iregs = ctx.max_ireg; n_fregs = ctx.max_freg;
    kernel;
    out_strides = strides_of (Compute.output_shape compute) }

(* ---------- VM ---------- *)

(* Dispatch loops.  Opcodes are matched as integer literals (the compiler
   emits the same values via the named constants above) so the match
   compiles to a jump table, and operands are fetched with explicit
   unsafe reads — no closures in the hot loop. *)

let exec_int code vars iregs =
  let len = Array.length code in
  let pc = ref 0 in
  while !pc < len do
    let base = !pc in
    match Array.unsafe_get code base with
    | 0 (* ICONST *) ->
      Array.unsafe_set iregs
        (Array.unsafe_get code (base + 1))
        (Array.unsafe_get code (base + 2));
      pc := base + 3
    | 1 (* IVAR *) ->
      Array.unsafe_set iregs
        (Array.unsafe_get code (base + 1))
        (Array.unsafe_get vars (Array.unsafe_get code (base + 2)));
      pc := base + 3
    | 9 (* IADDK *) ->
      Array.unsafe_set iregs
        (Array.unsafe_get code (base + 1))
        (Array.unsafe_get iregs (Array.unsafe_get code (base + 2))
        + Array.unsafe_get code (base + 3));
      pc := base + 4
    | 10 (* IMULK *) ->
      Array.unsafe_set iregs
        (Array.unsafe_get code (base + 1))
        (Array.unsafe_get iregs (Array.unsafe_get code (base + 2))
        * Array.unsafe_get code (base + 3));
      pc := base + 4
    | 11 (* IAFF *) ->
      let t = Array.unsafe_get code (base + 2) in
      let acc = ref (Array.unsafe_get code (base + 3)) in
      for i = 0 to t - 1 do
        acc :=
          !acc
          + Array.unsafe_get vars (Array.unsafe_get code (base + 4 + (2 * i)))
            * Array.unsafe_get code (base + 5 + (2 * i))
      done;
      Array.unsafe_set iregs (Array.unsafe_get code (base + 1)) !acc;
      pc := base + 4 + (2 * t)
    | op ->
      let a = Array.unsafe_get iregs (Array.unsafe_get code (base + 2))
      and b = Array.unsafe_get iregs (Array.unsafe_get code (base + 3)) in
      let v =
        match op with
        | 2 (* IADD *) -> a + b
        | 3 (* ISUB *) -> a - b
        | 4 (* IMUL *) -> a * b
        | 5 (* IDIV *) -> Index.floordiv a b
        | 6 (* IMOD *) -> Index.floormod a b
        | 7 (* IMIN *) -> min a b
        | 8 (* IMAX *) -> max a b
        | _ -> invalid_arg "Compiled: corrupt int opcode"
      in
      Array.unsafe_set iregs (Array.unsafe_get code (base + 1)) v;
      pc := base + 4
  done

let exec_float code fpool iregs fregs (data : float array array) accv =
  let len = Array.length code in
  let pc = ref 0 in
  while !pc < len do
    let base = !pc in
    match Array.unsafe_get code base with
    | 0 (* FCONST *) ->
      Array.unsafe_set fregs
        (Array.unsafe_get code (base + 1))
        (Array.unsafe_get fpool (Array.unsafe_get code (base + 2)));
      pc := base + 3
    | 1 (* FLOAD *) ->
      let row = Array.unsafe_get data (Array.unsafe_get code (base + 2)) in
      Array.unsafe_set fregs
        (Array.unsafe_get code (base + 1))
        (Array.unsafe_get row
           (Array.unsafe_get iregs (Array.unsafe_get code (base + 3))));
      pc := base + 4
    | 2 (* FNEG *) ->
      Array.unsafe_set fregs
        (Array.unsafe_get code (base + 1))
        (-.Array.unsafe_get fregs (Array.unsafe_get code (base + 2)));
      pc := base + 3
    | 9 (* FACC *) ->
      Array.unsafe_set fregs (Array.unsafe_get code (base + 1)) accv;
      pc := base + 2
    | op ->
      let a = Array.unsafe_get fregs (Array.unsafe_get code (base + 2))
      and b = Array.unsafe_get fregs (Array.unsafe_get code (base + 3)) in
      let v =
        match op with
        | 3 (* FADD *) -> a +. b
        | 4 (* FSUB *) -> a -. b
        | 5 (* FMUL *) -> a *. b
        | 6 (* FDIV *) -> a /. b
        | 7 (* FMAX *) -> Float.max a b
        | 8 (* FMIN *) -> Float.min a b
        | _ -> invalid_arg "Compiled: corrupt float opcode"
      in
      Array.unsafe_set fregs (Array.unsafe_get code (base + 1)) v;
      pc := base + 4
  done

let check_inputs p inputs =
  Array.mapi
    (fun i name ->
      match List.assoc_opt name inputs with
      | None -> invalid_arg (Fmt.str "Compiled: missing input %s" name)
      | Some t ->
        if Tensor.shape t <> p.tshapes.(i) then
          invalid_arg
            (Fmt.str "Compiled: input %s has shape [%a], declared [%a]" name
               Fmt.(list ~sep:(any ";") int)
               (Tensor.shape t)
               Fmt.(list ~sep:(any ";") int)
               p.tshapes.(i));
        Tensor.unsafe_data t)
    p.tensors

let run_compiled p inputs =
  Trace.with_span ~name:"exec.compiled.run" @@ fun () ->
  Trace.Counter.incr c_runs;
  let { n; m; _ } = p in
  let data = check_inputs p inputs in
  let out = Tensor.create (Compute.output_shape p.compute) in
  let coverage = Tensor.create (Compute.output_shape p.compute) in
  let out_data = Tensor.unsafe_data out in
  let cov_data = Tensor.unsafe_data coverage in
  let vars = Array.make (n + m) 0 in
  let iregs = Array.make (max 1 p.n_iregs) 0 in
  let fregs = Array.make (max 1 p.n_fregs) 0.0 in
  (* The reduction of one output element, as a function from the initial
     accumulator to the reduced one.  The walk visits the kept reduce dims
     outermost first, each in ascending order — the order of the
     interpreter's chunked loops, whose level-1/level-0 chunk structure is
     kernel-shaped bookkeeping with no numeric effect — so the
     accumulation order, and hence every result bit, is the
     interpreter's.  Kernel dispatch and every site/tensor lookup are
     resolved here, once per run. *)
  let sum = p.sum in
  let last = Array.length p.walk - 1 in
  let wext = Array.map (fun j -> p.rext.(j)) p.walk in
  let reduce : float -> float =
    match (p.deltas, p.kernel) with
    | Some d, Mac (sa, sb) ->
      let ta = data.(p.site_tensor.(sa)) and tb = data.(p.site_tensor.(sb)) in
      let da = Array.map (fun st -> st.(sa)) d
      and db = Array.map (fun st -> st.(sb)) d in
      let rec mac k oa ob s =
        let dak = da.(k) and dbk = db.(k) in
        let oa = ref oa and ob = ref ob and s = ref s in
        if k = last then
          for _ = 1 to wext.(k) do
            s := !s +. (Array.unsafe_get ta !oa *. Array.unsafe_get tb !ob);
            oa := !oa + dak;
            ob := !ob + dbk
          done
        else
          for _ = 1 to wext.(k) do
            s := mac (k + 1) !oa !ob !s;
            oa := !oa + dak;
            ob := !ob + dbk
          done;
        !s
      in
      fun acc ->
        exec_int p.body_idx vars iregs;
        mac 0 iregs.(sa) iregs.(sb) acc
    | Some d, Fold sa ->
      let ta = data.(p.site_tensor.(sa)) in
      let da = Array.map (fun st -> st.(sa)) d in
      let rec fold k o s =
        let dak = da.(k) in
        let o = ref o and s = ref s in
        if k < last then
          for _ = 1 to wext.(k) do
            s := fold (k + 1) !o !s;
            o := !o + dak
          done
        else if sum then
          for _ = 1 to wext.(k) do
            s := !s +. Array.unsafe_get ta !o;
            o := !o + dak
          done
        else
          for _ = 1 to wext.(k) do
            s := Float.max !s (Array.unsafe_get ta !o);
            o := !o + dak
          done;
        !s
      in
      fun acc ->
        exec_int p.body_idx vars iregs;
        fold 0 iregs.(sa) acc
    | Some d, Generic ->
      (* Offsets live in the site registers: each dim steps them forward
         and rewinds them when done, so its enclosing dim steps from the
         dim's start. *)
      let n_body_sites = Array.length d.(0) in
      let advance st times =
        for s = 0 to n_body_sites - 1 do
          iregs.(s) <- iregs.(s) + (times * Array.unsafe_get st s)
        done
      in
      let rec generic k acc =
        let st = d.(k) and len = wext.(k) in
        let acc = ref acc in
        for _ = 1 to len do
          (if k = last then begin
             exec_float p.body_code p.fpool iregs fregs data 0.0;
             acc := if sum then !acc +. fregs.(0) else Float.max !acc fregs.(0)
           end
           else acc := generic (k + 1) !acc);
          advance st 1
        done;
        advance st (-len);
        !acc
      in
      fun acc ->
        exec_int p.body_idx vars iregs;
        generic 0 acc
    | None, _ ->
      (* No reduction, or some body site is non-affine: set the walked
         variables and re-derive every offset per point. *)
      let rec point k acc =
        if k > last then begin
          exec_int p.body_idx vars iregs;
          exec_float p.body_code p.fpool iregs fregs data 0.0;
          if sum then acc +. fregs.(0) else Float.max acc fregs.(0)
        end
        else begin
          let slot = n + p.walk.(k) in
          let acc = ref acc in
          for r = 0 to wext.(k) - 1 do
            vars.(slot) <- r;
            acc := point (k + 1) !acc
          done;
          vars.(slot) <- 0;
          !acc
        end
      in
      point 0
  in
  (* One output element: reduce, scale, epilogue, store. *)
  let rdomain = Array.fold_left ( * ) 1 p.rext in
  let points = ref 0 in
  let visit () =
    points := !points + rdomain;
    let v = reduce p.init *. p.scale in
    let v =
      match p.epi_code with
      | None -> v
      | Some code ->
        exec_int p.epi_idx vars iregs;
        exec_float code p.fpool iregs fregs data v;
        fregs.(0)
    in
    let off = ref 0 in
    for i = 0 to n - 1 do
      off := !off + (vars.(i) * p.out_strides.(i))
    done;
    Array.unsafe_set out_data !off v;
    Array.unsafe_set cov_data !off (Array.unsafe_get cov_data !off +. 1.0)
  in
  (* Spatial nest, mirroring the interpreter: blocks over the grid,
     logical units over the block, stripe elements within a unit. *)
  let origin = Array.make n 0 in
  let block_start = Array.make n 0 in
  let rec stripe_dim i =
    if i = n then visit ()
    else begin
      let block_end = min (block_start.(i) + p.bsize.(i)) p.sext.(i) in
      for e = 0 to p.stripe.(i) - 1 do
        let coord = origin.(i) + e in
        if coord < block_end then begin
          vars.(i) <- coord;
          stripe_dim (i + 1)
        end
      done
    end
  in
  let rec unit_dim i =
    if i = n then stripe_dim 0
    else
      for u = 0 to p.units.(i) - 1 do
        origin.(i) <- block_start.(i) + (u * p.stripe.(i));
        unit_dim (i + 1)
      done
  in
  let rec block_dim i =
    if i = n then unit_dim 0
    else begin
      let b = ref 0 in
      while !b < p.sext.(i) do
        block_start.(i) <- !b;
        block_dim (i + 1);
        b := !b + p.bsize.(i)
      done
    end
  in
  block_dim 0;
  Trace.Counter.add c_points !points;
  Trace.Counter.add c_elements (Compute.output_points p.compute);
  { Scheduled.output = out; coverage }

let run etir inputs = run_compiled (compile etir) inputs

let pp ppf p =
  let kernel_name =
    match p.kernel with
    | Mac _ -> "mac"
    | Fold _ -> "fold"
    | Generic -> "generic"
  in
  let reduce = Array.of_list (Compute.reduce_axes p.compute) in
  Fmt.pf ppf
    "compiled{%s: %d sites, body %d+%d words, epi %s, %s stripe kernel, \
     reduce walk [%a] %d/%d dims, %s offsets, %d iregs, %d fregs}"
    (Compute.name p.compute) p.n_sites
    (Array.length p.body_idx)
    (Array.length p.body_code)
    (match p.epi_code with
    | None -> "none"
    | Some c -> string_of_int (Array.length c) ^ " words")
    kernel_name
    Fmt.(array ~sep:(any ",") string)
    (Array.map (fun j -> Axis.name reduce.(j)) p.walk)
    (Array.length p.walk) p.m
    (if p.deltas = None then "per-point" else "hoisted")
    p.n_iregs p.n_fregs
