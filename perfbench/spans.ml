type t = { id : int; name : string; parent : int; start : float; stop : float }

let on = ref false
let next_id = ref 0
let open_stack = ref []
let finished = ref []
let set_enabled b = on := b
let enabled () = !on

let span name f =
  if not (!on && Domain.is_main_domain ()) then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_stack with p :: _ -> p | [] -> -1 in
    open_stack := id :: !open_stack;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        open_stack := List.tl !open_stack;
        finished := { id; name; parent; start; stop } :: !finished)
      f
  end

let all () = List.sort (fun a b -> compare a.id b.id) !finished
let ms s = (s.stop -. s.start) *. 1e3

let rollup root =
  let spans = all () in
  let children = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  let child_ms s =
    List.fold_left (fun acc c -> acc +. ms c) 0.0 (Hashtbl.find_all children s.id)
  in
  let table = Hashtbl.create 16 in
  let rec visit s =
    List.iter
      (fun c ->
        let total, self =
          Option.value (Hashtbl.find_opt table c.name) ~default:(0.0, 0.0)
        in
        Hashtbl.replace table c.name (total +. ms c, self +. ms c -. child_ms c);
        visit c)
      (Hashtbl.find_all children s.id)
  in
  visit root;
  ( List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []),
    ms root -. child_ms root )

let write path =
  let spans = all () in
  let t0 = match spans with s :: _ -> s.start | [] -> 0.0 in
  let us t = Printf.sprintf "%.1f" ((t -. t0) *. 1e6) in
  let oc = open_out path in
  output_string oc "{\"spans\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s  {\"id\": %d, \"name\": %S, \"parent\": %d, \"start_us\": %s, \"end_us\": %s}"
        (if i = 0 then "" else ",\n")
        s.id s.name s.parent (us s.start) (us s.stop))
    spans;
  output_string oc "\n]}\n";
  close_out oc
