(* The JSON layer: printer/parser round trip, the fixed layout, and the
   strict grammar's rejections. *)

open QCheck.Gen

let finite f = if Float.is_finite f then f else 0.0

(* Finite floats from any bit pattern (subnormals, huge magnitudes,
   negative zero), plus the extremes. *)
let gen_float =
  frequency
    [ (4, map (fun bits -> finite (Int64.float_of_bits bits)) ui64);
      (1, oneofl [ 5e-324; Float.min_float; Float.max_float; -0.0; 0.1; 1e300 ]) ]

(* Any bytes, biased towards the escaped ones, plus all 256 in one string. *)
let gen_string =
  let byte = frequency [ (3, char); (1, oneofl [ '"'; '\\' ]) ] in
  frequency
    [ (8, string_size ~gen:byte (int_bound 12)); (1, pure (String.init 256 Char.chr)) ]

let gen_value =
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [ pure Json.Null; map (fun b -> Json.Bool b) bool;
               map (fun f -> Json.Num f) gen_float; map (fun s -> Json.Str s) gen_string ]
         in
         let list g = list_size (int_bound 4) g in
         if n <= 0 then leaf
         else
           frequency
             [ (2, leaf); (1, map (fun vs -> Json.Arr vs) (list (self (n / 2))));
               (1, map (fun ms -> Json.Obj ms) (list (pair gen_string (self (n / 2))))) ])

let prop_round_trip =
  QCheck.Test.make ~count:1000 ~name:"parse (to_string v) = Ok v"
    (QCheck.make ~print:Json.to_string gen_value)
    (fun v -> Json.parse (Json.to_string v) = Ok v)

let test_layout () =
  let check name expected v =
    Alcotest.(check string) name expected (Json.to_string v)
  in
  check "non-finite prints as null" "[null, null, null]"
    (Json.Arr [ Num Float.nan; Num Float.infinity; Num Float.neg_infinity ]);
  check "shortest numbers" "[1, 0.1, -2.5e-07, 1e+300]"
    (Json.Arr [ Num 1.0; Num 0.1; Num (-2.5e-7); Num 1e300 ]);
  check "members and escapes" {|{"a\"b": "x\ny\u0001", "c": [true, null]}|}
    (Json.Obj [ ("a\"b", Str "x\ny\001"); ("c", Arr [ Bool true; Null ]) ]);
  check "objects in an array take one line each"
    "{\"traceEvents\": [\n{},\n{\"ph\": \"C\"}\n]}"
    (Json.Obj [ ("traceEvents", Arr [ Obj []; Obj [ ("ph", Str "C") ] ]) ])

let test_accepts () =
  let check s expected =
    Alcotest.(check bool) s true (Json.parse s = Ok expected)
  in
  check " -0.5e+3 " (Json.Num (-500.0));
  check "1E-2" (Json.Num 0.01);
  check {|"é😀\/"|} (Json.Str "\xc3\xa9\xf0\x9f\x98\x80/");
  check "{ \"a\" : [ ] , \"b\" : { } }"
    (Json.Obj [ ("a", Json.Arr []); ("b", Json.Obj []) ])

(* Every rejection is an error that ends "at byte N". *)
let test_rejects () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "%S accepted" s
      | Error m ->
        Alcotest.(check bool) (s ^ ": error names the offset") true
          (match List.rev (String.split_on_char ' ' m) with
          | n :: "byte" :: "at" :: _ -> int_of_string_opt n <> None
          | _ -> false))
    [ (* number grammar *)
      "+1"; "01"; "1."; ".5"; "nan"; "1_0"; "0x10"; "-"; "1e";
      (* strings: raw control character, bad \u, lone surrogate, bad escape,
         unterminated *)
      "\"a\001b\""; {|"\u12G4"|}; {|"\ud800"|}; {|"\q"|}; "\"abc";
      (* structure, trailing garbage, empty input *)
      "[1,]"; "{\"a\":1,}"; "{\"a\" 1}"; "[1 2]"; "{} x"; ""; "  " ]

let () =
  Alcotest.run "json"
    [ ("round trip", [ QCheck_alcotest.to_alcotest prop_round_trip ]);
      ("layout", [ Alcotest.test_case "fixed layout" `Quick test_layout ]);
      ("grammar",
       [ Alcotest.test_case "accepts RFC 8259" `Quick test_accepts;
         Alcotest.test_case "rejects malformed input" `Quick test_rejects ]) ]
