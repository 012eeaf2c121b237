(* Compile-once footprint plans.

   The cost model needs, for a tile of the iteration domain placed at the
   origin, the number of elements each tensor access touches: the product
   over the access's dimensions of the extent of the index expression's
   interval when loop variable [v] ranges over [0, tile(v) - 1].  That
   quantity is asked for millions of times per network compile, always over
   the same accesses of the same compute definition, so the plan resolves
   everything that does not depend on the tile once:

   - every loop variable becomes a slot number (spatial axes in declaration
     order, then reduce axes), so evaluation reads one int array instead of
     looking axis names up;
   - every tensor becomes its element size in bytes;
   - every index expression built from variables, constants, [+], [-] and
     multiplication by a variable-free factor becomes a weight list: interval
     arithmetic evaluates each variable occurrence independently, so the
     interval of such an expression has extent [1 + sum w_k (tile_k - 1)],
     where occurrence [k] carries the absolute product [w_k] of the factors
     above it.  Occurrences are kept separate rather than merged, exactly as
     the interval evaluation keeps them ([x - x] spans [2 tile - 1] points).
     Any other index (a product of two variable terms, div, mod, min, max
     over variables; no shipped operator has one) is evaluated by
     [Interval.of_index] itself, looking its variables up by name.

   Both forms give exactly the extents of [Interval.of_index] over the
   origin tile environment; test/costmodel checks this against that oracle
   over random schedules. *)

type dim =
  | Linear of { slots : int array; weights : int array }
  | General of Index.t

type access = { tensor : string; elem_bytes : int; dims : dim array }
type t = { axes : string array; accesses : access array }

(* A variable-free index is a point under interval evaluation. *)
let constant_value (idx : Index.t) =
  if Index.vars idx <> [] then None
  else
    Some (Interval.lo (Interval.of_index ~env:(fun _ -> assert false) idx))

(* Weighted variable occurrences of a linear index, or [None]. *)
let rec linear_terms slot_of (idx : Index.t) =
  match constant_value idx with
  | Some _ -> Some []
  | None -> (
    match idx with
    | Var name -> Some [ (slot_of name, 1) ]
    | Add (a, b) | Sub (a, b) -> (
      match (linear_terms slot_of a, linear_terms slot_of b) with
      | Some ta, Some tb -> Some (ta @ tb)
      | _ -> None)
    | Mul (a, b) -> (
      let scaled c e =
        Option.map
          (List.map (fun (s, w) -> (s, w * abs c)))
          (linear_terms slot_of e)
      in
      match (constant_value a, constant_value b) with
      | Some c, _ -> scaled c b
      | _, Some c -> scaled c a
      | None, None -> None)
    | Const _ | Div _ | Mod _ | Min _ | Max _ -> None)

let compile_dim slot_of idx =
  match linear_terms slot_of idx with
  | Some terms ->
    Linear
      { slots = Array.of_list (List.map fst terms);
        weights = Array.of_list (List.map snd terms) }
  | None ->
    List.iter (fun name -> ignore (slot_of name)) (Index.vars idx);
    General idx

let slot_of axes name =
  let rec go i =
    if i = Array.length axes then
      invalid_arg (Fmt.str "Footprint_plan: unknown axis %s" name)
    else if axes.(i) = name then i
    else go (i + 1)
  in
  go 0

let v compute =
  let axes =
    Array.of_list
      (List.map Axis.name (Compute.spatial_axes compute)
      @ List.map Axis.name (Compute.reduce_axes compute))
  in
  let elem_bytes tensor =
    match
      List.find_opt
        (fun input -> input.Compute.in_name = tensor)
        (Compute.inputs compute)
    with
    | Some input -> Dtype.size_bytes input.Compute.in_dtype
    | None ->
      invalid_arg (Fmt.str "Footprint_plan.v: access to unknown tensor %s" tensor)
  in
  let compile access =
    { tensor = Access.tensor access;
      elem_bytes = elem_bytes (Access.tensor access);
      dims =
        Array.of_list
          (List.map (compile_dim (slot_of axes)) (Access.indices access)) }
  in
  { axes;
    accesses =
      Array.of_list
        (List.map compile
           (Expr.accesses (Compute.body compute)
           @ Compute.epilogue_accesses compute)) }

let dim_extent t tiles = function
  | Linear { slots; weights } ->
    let span = ref 0 in
    for k = 0 to Array.length slots - 1 do
      span := !span + (weights.(k) * (tiles.(slots.(k)) - 1))
    done;
    !span + 1
  | General idx ->
    let env name = Interval.v 0 (tiles.(slot_of t.axes name) - 1) in
    Interval.extent (Interval.of_index ~env idx)

let access_elems t tiles a =
  let elems = ref 1 in
  for d = 0 to Array.length a.dims - 1 do
    elems := !elems * dim_extent t tiles a.dims.(d)
  done;
  !elems

let input_elems t tiles =
  Array.to_list
    (Array.map (fun a -> (a.tensor, access_elems t tiles a)) t.accesses)

let input_bytes t tiles =
  let bytes = ref 0 in
  Array.iter
    (fun a -> bytes := !bytes + (access_elems t tiles a * a.elem_bytes))
    t.accesses;
  !bytes
