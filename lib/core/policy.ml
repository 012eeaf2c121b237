(* The Markov transition policy — paper Algorithm 2.

   For the current state, every candidate (action, dimension) pair is scored
   with its analytical benefit, the cache action's score is modulated by the
   annealing multiplier, scores are normalised into a probability
   distribution, and one transition is drawn by roulette selection.

   A small stay probability implements Algorithm 2's fall-through (the loop
   can return no action, leaving the state unchanged).  Besides matching the
   pseudo-code, the induced self-loop is what makes the chain aperiodic: all
   tiling/vthread edges flip a lattice parity, so without self-loops the
   same-level subgraph would be bipartite. *)

open Sched

type choice = {
  action : Action.t;
  next : Etir.t;
  next_comps : Costmodel.Delta.components;
      (* the successor's cost-model components, derived incrementally along
         the edge — the annealing loop carries them so the next policy step
         starts from a ready-made before-state analysis even with the memo
         cache disabled *)
  probability : float;
}

let stay_probability = 0.02

(* The paper's annealing multiplier on the cache action,
   3 / (1 + e^{-(ln 5 / 10)(t - midpoint)}): the cache switch becomes up to
   3x more likely as construction progresses, which forces convergence to
   the next memory level.  [t] counts the steps spent at the *current* level
   — the clock restarts when a cache switch fires, so every level gets its
   own ramp (with a global clock the second switch would fire immediately
   and skip the shared-memory level entirely).
   The paper's midpoint of 10 steps is calibrated to its own benefit scale;
   ours is configurable (default 35) so that large-extent operators get
   enough growth steps per level before the switch becomes likely. *)
let cache_multiplier ?(midpoint = 35.0) ~iteration () =
  let t = float_of_int iteration in
  3.0 /. (1.0 +. exp (-.(log 5.0 /. 10.0) *. (t -. midpoint)))

type mode = {
  vthread_enabled : bool;  (* Table VI ablation: allow Set_vthread actions *)
  tree_mode : bool;
      (* degenerate to a tree: no inverse tiling, i.e. no backtracking *)
  cache_midpoint : float;  (* annealing-sigmoid midpoint, steps per level *)
}

let graph_mode =
  { vthread_enabled = true; tree_mode = false; cache_midpoint = 35.0 }

let allowed mode (action : Action.t) =
  match action with
  | Action.Set_vthread _ -> mode.vthread_enabled
  | Action.Tile { dir = Action.Shrink; _ }
  | Action.Rtile { dir = Action.Shrink; _ } ->
    not mode.tree_mode
  | Action.Tile { dir = Action.Grow; _ }
  | Action.Rtile { dir = Action.Grow; _ }
  | Action.Cache ->
    true

(* The iteration-independent part of a state's transition distribution:
   every legal successor with its positive base benefit.  This is the
   expensive part of a policy step (successor generation plus ~25 benefit
   analyses), and the annealing chain revisits states constantly — via
   backtracking edges and across restart chains — so it is memoized
   process-wide.  Only the cache action's weight depends on the iteration
   (through the annealing multiplier), and the multiplier is strictly
   positive, so it can be applied at lookup time without changing which
   transitions survive the positivity filter.  Keys carry the construction
   cursor (successors depend on it), the mode (it filters actions) and the
   device. *)
type base_key = {
  k_etir : Etir.t;
  k_hw : Hardware.Gpu_spec.t;
  k_mode : mode;
  k_predict : int;
      (* Costmodel.Predict.generation () at lookup time: entries computed
         under one predictor configuration (or none) must never serve
         another — the filtered successor set depends on the model *)
}

(* A state's memoized transition set.  Without a predictor every legal
   successor sits in [w_exact] with its analytically exact benefit and
   [w_tail] is empty.  With an edge head active, only the predicted top-k
   fraction is analysed exactly; the rest is kept in [w_tail] with its
   *predicted* raw benefit.  The tail is not discarded: [draw] folds it
   into one aggregate roulette slot so low-benefit edges — which the
   annealing walk demonstrably needs — keep their probability mass, and a
   tail edge is analysed exactly only in the rare step that actually draws
   it.

   Entries hold actions and weights only, never successor states: a chain
   takes one edge per step, so [draw] re-derives just that successor
   ([materialise]).  Retaining all ~25 successors and their component
   records per entry made the cache the bulk of the promoted heap.  The
   weights sit in an unboxed float array beside the actions, half the
   words of a list of pairs. *)
type edges = { actions : Action.t array; weights : float array }
type weighted = { w_exact : edges; w_tail : edges }

let edges pairs =
  { actions = Array.of_list (List.map fst pairs);
    weights = Array.of_list (List.map snd pairs) }

let base_memo : (base_key, weighted) Parallel.Memo.t =
  Parallel.Memo.create ~name:"transitions" ~capacity:8192
    ~hash:(fun k ->
      (Int64.to_int (Etir.fingerprint k.k_etir)
      lxor (Etir.cur_level k.k_etir * 0x01000193)
      lxor (k.k_predict * 0x9e3779b9)
      lxor Hashtbl.hash (Hardware.Gpu_spec.name k.k_hw))
      land max_int)
    ~equal:(fun a b ->
      Etir.cur_level a.k_etir = Etir.cur_level b.k_etir
      && a.k_predict = b.k_predict
      && a.k_mode = b.k_mode
      && Etir.eval_equal a.k_etir b.k_etir
      && (a.k_hw == b.k_hw || a.k_hw = b.k_hw))
    ()

let base_weighted ?comps ~hw ~mode etir =
  Parallel.Memo.find_or_add base_memo
    { k_etir = etir; k_hw = hw; k_mode = mode;
      k_predict = Costmodel.Predict.generation () }
    (fun () ->
      (* One hoisted analysis context for the whole successor set — the
         before-state traffic/footprint/occupancy is identical across them.
         When the caller carries the before state's components (the anneal
         loop threads them edge by edge), the context is a set of field
         reads; otherwise they are rebuilt once here. *)
      let before_comps =
        match comps with
        | Some c -> c
        | None -> Costmodel.Delta.of_etir ~hw etir
      in
      let ctx = Benefit.context_of ~hw etir before_comps in
      let dumping = Costmodel.Predict.dumping () in
      let exact (action, next) =
        (* Components travel along the edge: only the slices [action]
           invalidates are recomputed for the successor. *)
        let next_comps =
          Costmodel.Delta.child ~hw ~before:etir ~parent:before_comps ~action
            next
        in
        let benefit =
          Benefit.of_action_comps ctx ~after:next ~after_comps:next_comps
            action
        in
        (* Edge rows for the trace dump: the sibling filter's inference-time
           distribution, labelled with the exact benefit the roulette
           weights with. *)
        if dumping then
          Costmodel.Predict.observe Costmodel.Predict.Edge
            (Costmodel.Feature.vector ~comps:before_comps ~state:next)
            (Costmodel.Predict.label_of_benefit benefit);
        if benefit <= 0.0 then None else Some (action, benefit)
      in
      let legal =
        List.filter (fun (action, _) -> allowed mode action)
          (Action.successors etir)
      in
      let all_exact () =
        { w_exact = edges (List.filter_map exact legal); w_tail = edges [] }
      in
      match Costmodel.Predict.active () with
      | None -> all_exact ()
      | Some act when not act.Costmodel.Predict.a_walk -> all_exact ()
      | Some act ->
        match Costmodel.Predict.edge_head act.Costmodel.Predict.a_model with
        | None -> all_exact ()
        | Some head ->
          (* Two-phase scoring: the edge head ranks the successor frontier by
             predicted benefit and only the top-k fraction is scored exactly.
             Cache successors always rank first — they are the only way
             construction advances to the next memory level.  The rest keeps
             its predicted weight in the tail (expm1 inverts the log1p
             training label back to a raw benefit).  If every exact survivor
             has non-positive benefit while siblings were deferred, the
             filter is abandoned for the exact path so the chain can never
             stall on a mis-ranking. *)
          let n = List.length legal in
          let keep =
            max 1 (int_of_float (Float.ceil (act.Costmodel.Predict.a_topk
                                             *. float_of_int n)))
          in
          if keep >= n then all_exact ()
          else begin
            let buf = Costmodel.Feature.blank () in
            Costmodel.Feature.set_comps buf before_comps;
            let scored =
              List.map
                (fun ((action, next) as edge) ->
                  match action with
                  | Action.Cache -> (Float.infinity, edge)
                  | Action.Tile _ | Action.Rtile _ | Action.Set_vthread _ ->
                    Costmodel.Feature.set_state buf next;
                    (Costmodel.Predict.infer head buf, edge))
                legal
            in
            Costmodel.Predict.count_infers n;
            let ranked =
              List.stable_sort (fun (a, _) (b, _) -> compare b a) scored
            in
            let survivors =
              List.filteri (fun i _ -> i < keep) ranked |> List.map snd
            in
            (* [scored] preserves the generation order, so both partitions
               below keep downstream float folds order-stable. *)
            let in_top (_, edge) =
              List.exists (fun e -> e == edge) survivors
            in
            let chosen = List.filter in_top scored |> List.map snd in
            (* Tail weights invert the log1p training label back to a raw
               benefit.  A small floor keeps every deferred edge reachable:
               the head's ranking error on near-zero benefits would
               otherwise zero out edges the exact roulette still walks
               through (and the lazy exact check on a tail draw rejects any
               edge whose true benefit is non-positive). *)
            let tail =
              List.filter_map
                (fun ((pred, (action, _)) as s) ->
                  if in_top s then None
                  else
                    let w = Float.expm1 pred in
                    let w =
                      if Float.is_finite w then Float.max 0.02 w else 0.02
                    in
                    Some (action, w))
                scored
            in
            Costmodel.Predict.count_hits (List.length chosen);
            Costmodel.Predict.count_filtered (n - List.length chosen);
            match List.filter_map exact chosen with
            | [] when List.length chosen < n ->
              Costmodel.Predict.count_fallback ();
              all_exact ()
            | w_exact -> { w_exact = edges w_exact; w_tail = edges tail }
          end)

(* The component record of the before state: the caller's when it carries
   one, otherwise rebuilt (once, and only if an edge is materialised). *)
let before_comps ?comps ~hw etir =
  match comps with
  | Some c -> lazy c
  | None -> lazy (Costmodel.Delta.of_etir ~hw etir)

(* The successor state and component record behind a memoized edge.  The
   entry was built from [Action.successors] of an [eval_equal] state at the
   same cursor, so the action is legal here and yields the same successor —
   over the caller's own compute. *)
let materialise ~hw etir before action =
  match Action.apply etir action with
  | None -> invalid_arg "Policy: memoized action no longer applies"
  | Some next ->
    ( next,
      Costmodel.Delta.child ~hw ~before:etir ~parent:(Lazy.force before)
        ~action next )

(* Exact analysis of one deferred tail edge — the lazy path taken when the
   aggregate tail slot wins the roulette, and by [transitions] (the analysis
   entry point), which always materialises the exact distribution. *)
let expand_tail_edge ~hw etir before action =
  let next, next_comps = materialise ~hw etir before action in
  let ctx = Benefit.context_of ~hw etir (Lazy.force before) in
  let benefit =
    Benefit.of_action_comps ctx ~after:next ~after_comps:next_comps action
  in
  if benefit <= 0.0 then None else Some (action, next, next_comps, benefit)

(* All legal, positively-weighted transitions with normalised
   probabilities.  The normalisation leaves room for [stay_probability].
   This is the analysis-facing entry point (value iteration, tests): every
   successor is materialised and any predictor tail is expanded exactly
   here, so the returned distribution is always the exact one. *)
let transitions ?comps ~hw ~mode ~iteration etir =
  let base = base_weighted ?comps ~hw ~mode etir in
  let before = before_comps ?comps ~hw etir in
  let exact =
    List.mapi
      (fun i action ->
        let next, next_comps = materialise ~hw etir before action in
        (action, next, next_comps, base.w_exact.weights.(i)))
      (Array.to_list base.w_exact.actions)
    @ List.filter_map
        (expand_tail_edge ~hw etir before)
        (Array.to_list base.w_tail.actions)
  in
  let weighted =
    List.map
      (fun (action, next, next_comps, benefit) ->
        let benefit =
          match action with
          | Action.Cache ->
            benefit
            *. cache_multiplier ~midpoint:mode.cache_midpoint ~iteration ()
          | Action.Tile _ | Action.Rtile _ | Action.Set_vthread _ -> benefit
        in
        (action, next, next_comps, benefit))
      exact
  in
  let total =
    List.fold_left (fun acc (_, _, _, b) -> acc +. b) 0.0 weighted
  in
  if total <= 0.0 then []
  else
    let scale = (1.0 -. stay_probability) /. total in
    List.map
      (fun (action, next, next_comps, benefit) ->
        { action; next; next_comps; probability = benefit *. scale })
      weighted

(* Fused [transitions] + [select] for the annealing hot loop: one array of
   weights instead of three intermediate lists, and only the drawn choice
   record is materialised.  Every float is produced by the same operations
   in the same order as the two-call path, and the roulette sees the same
   weight array, so the draw — and hence the whole chain — is bit-identical
   to [select rng (transitions ...)]. *)
let draw rng ?comps ~hw ~mode ~iteration etir =
  let { w_exact; w_tail } = base_weighted ?comps ~hw ~mode etir in
  let n = Array.length w_exact.actions in
  if n = 0 && Array.length w_tail.actions = 0 then None
  else begin
    let before = before_comps ?comps ~hw etir in
    (* With a predictor tail the roulette gets one extra aggregate slot
       carrying the tail's total predicted mass, just before the stay slot.
       When that slot wins, a second roulette picks the edge within the
       tail by predicted weight and only that one edge is analysed exactly
       (its benefit may come back non-positive, in which case the exact
       policy would never take it and the step degrades to a stay). *)
    let tail = w_tail.weights in
    let t = if Array.length tail > 0 then 1 else 0 in
    let tail_mass = Array.fold_left ( +. ) 0.0 tail in
    let w = Array.make (n + t + 1) stay_probability in
    for i = 0 to n - 1 do
      let benefit = w_exact.weights.(i) in
      w.(i) <-
        (match w_exact.actions.(i) with
        | Action.Cache ->
          benefit
          *. cache_multiplier ~midpoint:mode.cache_midpoint ~iteration ()
        | Action.Tile _ | Action.Rtile _ | Action.Set_vthread _ -> benefit)
    done;
    if t = 1 then w.(n) <- tail_mass;
    let total = ref 0.0 in
    for i = 0 to n + t - 1 do
      total := !total +. w.(i)
    done;
    if !total <= 0.0 then None
    else begin
      let scale = (1.0 -. stay_probability) /. !total in
      for i = 0 to n + t - 1 do
        w.(i) <- w.(i) *. scale
      done;
      let idx = Rng.roulette rng w in
      if idx < n then begin
        let action = w_exact.actions.(idx) in
        let next, next_comps = materialise ~hw etir before action in
        Some { action; next; next_comps; probability = w.(idx) }
      end
      else if t = 1 && idx = n then begin
        Costmodel.Predict.count_tail ();
        let tidx = Rng.roulette rng tail in
        match expand_tail_edge ~hw etir before w_tail.actions.(tidx) with
        | None -> None
        | Some (action, next, next_comps, _) ->
          Some
            { action; next; next_comps;
              probability = w.(n) *. tail.(tidx) /. tail_mass }
      end
      else None
    end
  end

(* Roulette selection over the transition distribution; [None] means the
   chain stays in place this step. *)
let select rng choices =
  match choices with
  | [] -> None
  | _ ->
    let weights =
      Array.of_list (List.map (fun c -> c.probability) choices @ [ stay_probability ])
    in
    let idx = Rng.roulette rng weights in
    if idx = List.length choices then None else Some (List.nth choices idx)
