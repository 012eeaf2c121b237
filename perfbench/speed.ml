let interval_ms = 50.0
let reference_ms = 2.5
let now = Unix.gettimeofday

module Smap = Map.Make (String)

(* Allocation, hashing, comparison and pointer chasing, like the
   compiler and the VM do; a fixed amount of it. *)
let work () =
  let h = Hashtbl.create 16 in
  for i = 0 to 3999 do
    Hashtbl.replace h ((i * 7919) land 0xffff) (float_of_int i)
  done;
  let l =
    List.sort Float.compare
      (List.init 6000 (fun i -> float_of_int ((i * 2654435761) land 0xfffff)))
  in
  let m = ref Smap.empty in
  for i = 0 to 1499 do
    m := Smap.add (string_of_int (i * 7919)) i !m
  done;
  ignore (Sys.opaque_identity (Hashtbl.length h + List.length l + Smap.cardinal !m))

let samples = ref []
let count = ref 0
let spent_ms = ref 0.0
let last = ref (now ())

let tick ?(force = false) () =
  if force || (now () -. !last) *. 1e3 >= interval_ms then begin
    let t0 = now () in
    Spans.span "speed.probe" work;
    last := now ();
    let ms = (!last -. t0) *. 1e3 in
    samples := ms :: !samples;
    incr count;
    spent_ms := !spent_ms +. ms
  end

let timed f =
  let e0 = !spent_ms and t0 = now () in
  let v = f () in
  (v, ((now () -. t0) *. 1e3) -. (!spent_ms -. e0))

type mark = int

let mark () = !count

let factor m =
  let n = !count - m in
  if n <= 0 then (Float.nan, 0)
  else (reference_ms /. Stats.median (List.filteri (fun i _ -> i < n) !samples), n)
