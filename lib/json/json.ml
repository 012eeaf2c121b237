(* One value type, one printer, one strict parser.  See the mli for the
   layout and the string contract. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---------- printer ---------- *)

(* %.15g is the shortest form whenever one of at most 15 digits exists;
   %.17g always round-trips. *)
let number f =
  let rec go p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else go (p + 1)
  in
  if Float.is_finite f then go 15 else "null"

let add_quoted b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c -> Buffer.add_char b '\\'; Buffer.add_char b c
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let is_obj = function Obj _ -> true | _ -> false

let rec write b v =
  let seq opening sep closing f xs =
    Buffer.add_string b opening;
    List.iteri (fun i x -> if i > 0 then Buffer.add_string b sep; f x) xs;
    Buffer.add_string b closing
  in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num f -> Buffer.add_string b (number f)
  | Str s -> add_quoted b s
  | Arr (_ :: _ as vs) when List.for_all is_obj vs ->
    seq "[\n" ",\n" "\n]" (write b) vs
  | Arr vs -> seq "[" ", " "]" (write b) vs
  | Obj ms ->
    let member (k, v) = add_quoted b k; Buffer.add_string b ": "; write b v in
    seq "{" ", " "}" member ms

let to_string v =
  let b = Buffer.create 4096 in
  write b v;
  Buffer.contents b

(* ---------- parser ---------- *)

exception Syntax of int * string

let escapes =
  [ ('"', '"'); ('\\', '\\'); ('/', '/'); ('b', '\b'); ('f', '\012');
    ('n', '\n'); ('r', '\r'); ('t', '\t') ]

let parse s =
  let n = String.length s and pos = ref 0 in
  let fail m = raise (Syntax (!pos, m)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  (* Consume the next byte when it is one of [cs]. *)
  let accept cs =
    match peek () with
    | Some c when String.contains cs c -> advance (); true
    | _ -> false
  in
  let skip_ws () = while accept " \t\n\r" do () done in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v = String.iter expect word; v in
  let hex4 () =
    let h = if !pos + 4 <= n then String.sub s !pos 4 else "" in
    let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if String.length h < 4 || not (String.for_all hex h) then
      fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ h)
  in
  (* A high surrogate must be followed by an escaped low one. *)
  let uchar () =
    let u = hex4 () in
    if u >= 0xD800 && u <= 0xDBFF then begin
      expect '\\';
      expect 'u';
      let lo = hex4 () in
      if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired surrogate";
      Uchar.of_int (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
    end
    else if u >= 0xDC00 && u <= 0xDFFF then fail "unpaired surrogate"
    else Uchar.of_int u
  in
  let string_ () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some 'u' -> advance (); Buffer.add_utf_8_uchar b (uchar ())
        | Some c when List.mem_assoc c escapes ->
          advance (); Buffer.add_char b (List.assoc c escapes)
        | _ -> fail "bad escape");
        go ()
      | Some c when Char.code c < 0x20 -> fail "raw control character in string"
      | Some c -> advance (); Buffer.add_char b c; go ()
    in
    go ();
    Buffer.contents b
  in
  let digits () =
    if not (accept "0123456789") then fail "expected digit";
    while accept "0123456789" do () done
  in
  (* -? (0 | [1-9][0-9]* ) (.[0-9]+)? ([eE][+-]?[0-9]+)? *)
  let number () =
    let start = !pos in
    ignore (accept "-");
    if not (accept "0") then digits ();
    if accept "." then digits ();
    if accept "eE" then (ignore (accept "+-"); digits ());
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> advance (); Obj (items '}' member)
    | Some '[' -> advance (); Arr (items ']' value)
    | Some '"' -> Str (string_ ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some _ -> fail "unexpected character"
    | None -> fail "unexpected end of input"
  and member () =
    skip_ws ();
    let k = string_ () in
    skip_ws ();
    expect ':';
    (k, value ())
  and items : 'a. char -> (unit -> 'a) -> 'a list =
   fun closing item ->
    skip_ws ();
    if peek () = Some closing then (advance (); [])
    else
      let rec go acc =
        let x = item () in
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); go (x :: acc)
        | Some c when c = closing -> advance (); List.rev (x :: acc)
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" closing)
      in
      go []
  in
  try
    let v = value () in
    skip_ws ();
    if !pos < n then fail "trailing garbage";
    Ok v
  with Syntax (at, m) -> Error (Printf.sprintf "%s at byte %d" m at)

(* ---------- accessors ---------- *)

let member key = function
  | Obj ms -> Option.value ~default:Null (List.assoc_opt key ms)
  | _ -> Null

let to_list = function Arr vs -> Some vs | _ -> None
let to_float = function Num f -> Some f | _ -> None
let to_string_opt = function Str s -> Some s | _ -> None
