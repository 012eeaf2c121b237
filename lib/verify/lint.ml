(* Kernel lint pass: the emitted CUDA text against ETIR-derived facts.

   Codegen is a separate rendering of the same schedule the cost model
   scores; any disagreement between the two (shared-array extents vs the
   footprint model, launch dims vs the ETIR thread/grid shape, unroll
   pragmas on non-constant loops) means the kernel being shipped is not the
   schedule that was verified and priced.  Every check here compares a fact
   parsed out of the text with the same fact recomputed from the ETIR. *)

open Sched

type fact = { line : int; text : string }

let find_line kernel pred =
  List.find_opt (fun (_, l) -> pred l) (Scan.lines kernel)
  |> Option.map (fun (line, text) -> { line; text })

let product = List.fold_left ( * ) 1

(* Trip count of the for-loop on [line] when it is a compile-time constant:
   the bound between '<' and ';' must be a decimal literal. *)
let constant_trip line =
  match Scan.substring_index line "for" with
  | None -> None
  | Some _ -> (
    match String.index_opt line '<' with
    | None -> None
    | Some lt -> (
      match String.index_from_opt line lt ';' with
      | None -> None
      | Some semi ->
        let bound = String.trim (String.sub line (lt + 1) (semi - lt - 1)) in
        if bound <> "" && String.for_all (fun c -> c >= '0' && c <= '9') bound
        then Some (int_of_string bound)
        else None))

let check etir ~kernel ~host =
  let compute = Etir.compute etir in
  let diags = ref [] in
  let add sev ~code ~loc fmt =
    Fmt.kstr
      (fun m ->
        diags := Diagnostic.v ~code sev Diagnostic.Lint ~loc "%s" m :: !diags)
      fmt
  in
  let error ~code ~loc fmt = add Diagnostic.Error ~code ~loc fmt in
  let warn ~code ~loc fmt = add Diagnostic.Warning ~code ~loc fmt in
  let info ~code ~loc fmt = add Diagnostic.Info ~code ~loc fmt in
  let staged = Costmodel.Footprint.input_elems etir ~level:1 in
  (* Shared-array declarations: one per staged level-1 slice, sized exactly
     to the footprint model's element count. *)
  List.iter
    (fun (tensor, elems) ->
      let marker = Fmt.str "smem_%s[" tensor in
      match
        find_line kernel (fun l ->
            Scan.contains l "__shared__" && Scan.contains l marker)
      with
      | None ->
        error ~code:"GSR-L01" ~loc:"kernel"
          "missing __shared__ declaration for the staged slice of %s" tensor
      | Some { line; text } -> (
        match Scan.int_after text marker with
        | Some declared when declared <> elems ->
          error ~code:"GSR-L02" ~loc:(Fmt.str "kernel line %d" line)
            "__shared__ smem_%s declares %d floats but the level-1 footprint \
             stages %d" tensor declared elems
        | Some _ -> ()
        | None ->
          error ~code:"GSR-L03" ~loc:(Fmt.str "kernel line %d" line)
            "__shared__ smem_%s has a non-constant extent" tensor))
    staged;
  (* No declarations beyond the staged slices. *)
  List.iter
    (fun (num, l) ->
      if Scan.contains l "__shared__" then
        match
          List.find_opt
            (fun (tensor, _) -> Scan.contains l (Fmt.str "smem_%s[" tensor))
            staged
        with
        | Some _ -> ()
        | None ->
          warn ~code:"GSR-L04" ~loc:(Fmt.str "kernel line %d" num)
            "shared array not backed by any staged level-1 slice")
    (Scan.lines kernel);
  (* Accumulator array: exactly the level-0 spatial tile. *)
  let acc_expected =
    let n = Etir.num_spatial etir in
    product (List.init n (fun i -> Etir.stile etir ~level:0 ~dim:i))
  in
  (match find_line kernel (fun l -> Scan.contains l "float acc[") with
  | None ->
    error ~code:"GSR-L05" ~loc:"kernel"
      "no accumulator array for the thread tile"
  | Some { line; text } -> (
    match Scan.int_after text "acc[" with
    | Some declared when declared <> acc_expected ->
      error ~code:"GSR-L06" ~loc:(Fmt.str "kernel line %d" line)
        "accumulator holds %d floats but the level-0 tile has %d elements"
        declared acc_expected
    | _ -> ()));
  (* Unroll pragmas only on constant-trip loops. *)
  let rec unroll_scan = function
    | (num, l) :: rest when Scan.contains l "#pragma unroll" -> (
      match
        List.find_opt (fun (_, l') -> Scan.contains l' "for (") rest
      with
      | None ->
        error ~code:"GSR-L07" ~loc:(Fmt.str "kernel line %d" num)
          "#pragma unroll with no loop to unroll";
        unroll_scan rest
      | Some (fnum, floop) ->
        (match constant_trip floop with
        | Some _ -> ()
        | None ->
          error ~code:"GSR-L08" ~loc:(Fmt.str "kernel line %d" fnum)
            "#pragma unroll on a loop whose trip count is not a compile-time \
             constant");
        unroll_scan rest)
    | _ :: rest -> unroll_scan rest
    | [] -> ()
  in
  unroll_scan (Scan.lines kernel);
  (* Structure: balanced braces and the expected kernel symbol. *)
  let count ch =
    String.fold_left (fun acc c -> if c = ch then acc + 1 else acc) 0 kernel
  in
  if count '{' <> count '}' then
    error ~code:"GSR-L09" ~loc:"kernel" "unbalanced braces (%d '{' vs %d '}')"
      (count '{') (count '}');
  let kname = Codegen.Cuda.kernel_symbol compute in
  if not (Scan.contains kernel kname) then
    error ~code:"GSR-L10" ~loc:"kernel" "kernel symbol %s not found" kname;
  if not (Scan.contains host (kname ^ "<<<")) then
    error ~code:"GSR-L11" ~loc:"host" "host snippet does not launch %s" kname;
  (* Launch shape: the host dims must reproduce the ETIR's grid and block. *)
  let check_dims marker expected what =
    match Scan.ints_between host ~marker ~stop:')' with
    | [] -> error ~code:"GSR-L12" ~loc:"host" "no %s declaration" what
    | dims ->
      let total = product dims in
      if total <> expected then
        error ~code:"GSR-L13" ~loc:"host"
          "%s launches %d but the schedule prescribes %d" what total expected
  in
  check_dims "dim3 grid(" (Etir.grid_blocks etir) "grid";
  check_dims "dim3 block(" (Etir.threads_per_block etir) "block";
  (* Dynamic shared-memory size in the launch. *)
  (match Scan.ints_between host ~marker:"<<<grid, block, " ~stop:'>' with
  | [ smem ] ->
    let expected = Costmodel.Footprint.bytes_at etir ~level:1 in
    if smem <> expected then
      error ~code:"GSR-L14" ~loc:"host"
        "launch allocates %d bytes of dynamic shared memory but the staged \
         footprint is %d" smem expected
  | _ ->
    error ~code:"GSR-L15" ~loc:"host"
      "launch does not carry a shared-memory size");
  (* Advisory: staging arrays without a reduction phase to fill them. *)
  if staged <> [] && Etir.num_reduce etir = 0 then
    info ~code:"GSR-L16" ~loc:"kernel"
      "shared arrays declared but never filled (no reduction staging phase)";
  List.rev !diags
