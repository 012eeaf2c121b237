(* Minimal text scanning over emitted kernel/host source.

   The lint and race passes cross-check generated CUDA text against
   ETIR-derived facts; this module holds the shared string utilities: line
   splitting with 1-based numbers, substring search, and decimal-literal
   extraction (tile sizes, array extents, launch dimensions). *)

let lines src =
  let out = ref [] and start = ref 0 and num = ref 1 in
  String.iteri
    (fun i c ->
      if c = '\n' then begin
        out := (!num, String.sub src !start (i - !start)) :: !out;
        incr num;
        start := i + 1
      end)
    src;
  if !start < String.length src then
    out := (!num, String.sub src !start (String.length src - !start)) :: !out;
  List.rev !out

let substring_index s sub =
  let n = String.length sub and h = String.length s in
  if n = 0 then Some 0
  else begin
    let rec go i =
      if i + n > h then None
      else if String.sub s i n = sub then Some i
      else go (i + 1)
    in
    go 0
  end

let contains s sub = substring_index s sub <> None

let is_digit c = c >= '0' && c <= '9'

(* First decimal literal at or after position [pos]. *)
let int_from s pos =
  let h = String.length s in
  let rec skip i = if i < h && not (is_digit s.[i]) then skip (i + 1) else i in
  let start = skip (max pos 0) in
  if start >= h then None
  else begin
    let rec stop i = if i < h && is_digit s.[i] then stop (i + 1) else i in
    let stop = stop start in
    Some (int_of_string (String.sub s start (stop - start)))
  end

(* First decimal literal after the first occurrence of [marker]. *)
let int_after s marker =
  match substring_index s marker with
  | None -> None
  | Some i -> int_from s (i + String.length marker)

(* All decimal literals strictly between the end of [marker] and the next
   [stop] character, e.g. the three dims of "dim3 grid(8, 8, 1);". *)
let ints_between s ~marker ~stop =
  match substring_index s marker with
  | None -> []
  | Some i ->
    let from = i + String.length marker in
    let upto =
      match String.index_from_opt s from stop with
      | Some j -> j
      | None -> String.length s
    in
    let out = ref [] and cur = ref None in
    for k = from to upto - 1 do
      match (!cur, is_digit s.[k]) with
      | None, true -> cur := Some (Char.code s.[k] - Char.code '0')
      | Some v, true -> cur := Some ((v * 10) + Char.code s.[k] - Char.code '0')
      | Some v, false ->
        out := v :: !out;
        cur := None
      | None, false -> ()
    done;
    (match !cur with Some v -> out := v :: !out | None -> ());
    List.rev !out
