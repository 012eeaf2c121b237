(* Race/synchronisation pass over the staged shared-memory reduction.

   The emitted kernel's reduction chunk has a fixed phase structure per
   iteration: (1) cooperative staging — every thread writes a stripe of each
   level-1 input slice into shared memory; (2) compute — every thread reads
   the whole staged slice.  Iterating the chunk adds the loop-carried
   wrap-around edge from phase 2 of iteration t to phase 1 of iteration t+1.

   The pass rebuilds that structure as a happens-before problem over events
   (thread set, address interval, phase): staging writes by thread t cover
   the stripe {s : s ≡ t (mod blockDim)} of [0, elems-1]; compute reads
   cover all of [0, elems-1] from every thread.  Two events of different
   threads conflict when their address intervals intersect; every conflicting
   (write, read) pair must be separated — in program order within an
   iteration, or across the wrap-around edge — by an unconditional
   __syncthreads().  A barrier under divergent control flow (an if, or a
   loop whose trip count depends on threadIdx) does not synchronise: some
   threads may never reach it, so it is itself an error (barrier
   divergence).

   Events are recovered from the emitted text by a line scanner, so the pass
   also catches hand-edited or post-processed kernels whose barriers were
   dropped or moved. *)

open Tensor_lang
open Sched

type event =
  | Write of { line : int; tensor : string }
  | Compute of { line : int }
  | Barrier of { line : int; divergent : bool }

(* Open control-flow blocks; [divergent] when threads can disagree on the
   branch or trip count. *)
type block = { open_depth : int; divergent : bool }

let count_char ch s =
  String.fold_left (fun acc c -> if c = ch then acc + 1 else acc) 0 s

(* Name of the smem array written on this line, if any: "smem_T[...] =". *)
let smem_write_target line =
  match Scan.substring_index line "smem_" with
  | None -> None
  | Some i -> (
    let start = i + String.length "smem_" in
    let stop = ref start in
    while
      !stop < String.length line
      && (match line.[!stop] with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
         | _ -> false)
    do
      incr stop
    done;
    let tensor = String.sub line start (!stop - start) in
    (* An assignment into the array: "smem_T[" ... "] =" with = not ==. *)
    match String.index_from_opt line !stop ']' with
    | Some j
      when j + 2 < String.length line
           && Scan.contains (String.sub line j (String.length line - j)) "] ="
      -> Some tensor
    | _ -> None)

let parse kernel =
  let events = ref [] in
  let depth = ref 0 in
  let stack = ref [] in
  let chunk = ref None in  (* depth of the outermost reduction-chunk loop *)
  let chunk_events = ref [] in
  List.iter
    (fun (num, line) ->
      let pre_depth = !depth in
      let has_if = Scan.contains line "if (" || Scan.contains line "if(" in
      let has_for = Scan.contains line "for (" || Scan.contains line "for(" in
      let thread_dep = Scan.contains line "threadIdx" in
      let enclosing_divergent = List.exists (fun b -> b.divergent) !stack in
      let divergent_here =
        enclosing_divergent || has_if || (has_for && thread_dep)
      in
      let opens = count_char '{' line and closes = count_char '}' line in
      if has_for && Scan.contains line "_c1 = 0" && !chunk = None then
        chunk := Some pre_depth;
      let record ev =
        events := ev :: !events;
        match !chunk with
        | Some d when pre_depth > d -> chunk_events := ev :: !chunk_events
        | _ -> ()
      in
      (match smem_write_target line with
      | Some tensor -> record (Write { line = num; tensor })
      | None -> ());
      if Scan.contains line "__syncthreads" then
        record (Barrier { line = num; divergent = divergent_here });
      if
        Scan.contains line "acc["
        && (Scan.contains line "+=" || Scan.contains line "fmaxf")
        && not (Scan.contains line "#pragma")
      then record (Compute { line = num });
      (* Maintain the block stack: a control line opening a brace pushes a
         block; closing braces pop down to the matching depth. *)
      if opens > closes && (has_if || has_for) then
        stack := { open_depth = pre_depth; divergent = has_if || (has_for && thread_dep) } :: !stack;
      depth := pre_depth + opens - closes;
      stack := List.filter (fun b -> b.open_depth < !depth) !stack)
    (Scan.lines kernel);
  (List.rev !events, List.rev !chunk_events)

(* Addresses of one staged array as an interval; the pass only needs
   overlap, and both the striped write set and the full read set of a slice
   share the bounding interval [0, elems-1]. *)
let slice_interval elems = Interval.v 0 (max 0 (elems - 1))

let conflicts ~staged tensor =
  match List.assoc_opt tensor staged with
  | Some elems ->
    elems > 0
    && Interval.inter (slice_interval elems) (slice_interval elems) <> None
  | None -> true (* unknown array: assume the worst *)

let check etir ~kernel =
  let threads = Etir.threads_per_block etir in
  let staged = Costmodel.Footprint.input_elems etir ~level:1 in
  let steps = Etir.reduce_steps_at etir ~level:1 in
  let _, chunk_events = parse kernel in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* Barrier divergence is an error wherever it appears. *)
  List.iter
    (function
      | Barrier { line; divergent = true } when threads > 1 ->
        add
          (Diagnostic.v ~code:"GSR-R01" Diagnostic.Error Diagnostic.Race
             ~loc:(Fmt.str "kernel line %d" line)
             "__syncthreads() under divergent control flow: threads may not \
              all reach the barrier (barrier divergence)")
      | _ -> ())
    chunk_events;
  if threads > 1 then begin
    (* Conflicting staging writes, in chunk order. *)
    let writes =
      List.filter_map
        (function
          | Write { line; tensor } when conflicts ~staged tensor ->
            Some (line, tensor)
          | _ -> None)
        chunk_events
    in
    let computes =
      List.filter_map
        (function Compute { line } -> Some line | _ -> None)
        chunk_events
    in
    let barrier_between lo hi =
      List.exists
        (function
          | Barrier { line; divergent = false } -> lo < line && line < hi
          | _ -> false)
        chunk_events
    in
    (match (writes, computes) with
    | _ :: _, first_read :: _ ->
      let last_write = List.fold_left (fun acc (l, _) -> max acc l) 0 writes in
      (* RAW: every cross-thread read of a staged slice must happen after
         the barrier that closes the staging phase. *)
      if last_write < first_read && not (barrier_between last_write first_read)
      then
        add
          (Diagnostic.v ~code:"GSR-R02" Diagnostic.Error Diagnostic.Race
             ~loc:(Fmt.str "kernel line %d" first_read)
             "cross-thread reads of %s are not separated from the staging \
              writes by __syncthreads() (read-after-write race)"
             (String.concat ", "
                (List.sort_uniq compare
                   (List.map (fun (_, t) -> "smem_" ^ t) writes))));
      (* WAR wrap-around: iteration t+1's staging overwrites slices
         iteration t is still reading unless a barrier ends the chunk. *)
      let last_read = List.fold_left max 0 computes in
      if
        steps > 1
        && not
             (List.exists
                (function
                  | Barrier { line; divergent = false } -> line > last_read
                  | _ -> false)
                chunk_events)
      then
        add
          (Diagnostic.v ~code:"GSR-R03" Diagnostic.Error Diagnostic.Race
             ~loc:(Fmt.str "kernel line %d (end of reduction chunk)" last_read)
             "no __syncthreads() after the chunk's reads: the next \
              iteration's staging writes race with them (write-after-read \
              across chunk iterations)")
    | _ -> ())
  end;
  List.rev !diags
