(* Tests for the Chop_util.Json codec: escapes, the int/float
   distinction, nesting, positional errors, accessors, and the QCheck
   round-trip law [parse (print v) = Ok v]. *)

open Chop_util

let json =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Json.print v))
    ( = )

let parse_ok s =
  match Json.parse s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "parse %S failed: %s" s msg

let parse_err s =
  match Json.parse s with
  | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
  | Error msg -> msg

let check_parse name expected input =
  Alcotest.check json name expected (parse_ok input)

(* ------------------------------------------------------------------ *)
(* Printing and escapes *)

let test_print_scalars () =
  Alcotest.(check string) "null" "null" (Json.print Json.Null);
  Alcotest.(check string) "true" "true" (Json.print (Json.Bool true));
  Alcotest.(check string) "false" "false" (Json.print (Json.Bool false));
  Alcotest.(check string) "int" "42" (Json.print (Json.Int 42));
  Alcotest.(check string) "negative int" "-7" (Json.print (Json.Int (-7)));
  Alcotest.(check string) "string" "\"hi\"" (Json.print (Json.String "hi"))

let test_print_escapes () =
  Alcotest.(check string) "quote and backslash" {|"a\"b\\c"|}
    (Json.print (Json.String {|a"b\c|}));
  Alcotest.(check string) "named escapes" {|"\n\r\t\b\f"|}
    (Json.print (Json.String "\n\r\t\b\012"));
  Alcotest.(check string) "control byte" {|"\u0001"|}
    (Json.print (Json.String "\001"));
  (* bytes outside the control range pass through untouched *)
  Alcotest.(check string) "utf8 passthrough" "\"\xc3\xa9\""
    (Json.print (Json.String "\xc3\xa9"))

let test_print_floats () =
  Alcotest.(check string) "short repr" "0.1" (Json.print (Json.Float 0.1));
  Alcotest.(check string) "stays float" "1.0" (Json.print (Json.Float 1.));
  Alcotest.(check string) "negative" "-2.5" (Json.print (Json.Float (-2.5)));
  List.iter
    (fun f ->
      Alcotest.check_raises "non-finite"
        (Invalid_argument
           "Json.print: non-finite floats have no JSON representation")
        (fun () -> ignore (Json.print (Json.Float f))))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (* the bare form keys warm engines and prints chopspecs: a value of at
     most six significant digits below 10^6 prints as %g did, and past
     six digits nothing is lost *)
  List.iter
    (fun f ->
      Alcotest.(check string) "as %g" (Printf.sprintf "%g" f)
        (Json.shortest_float f))
    [ 0.; 1.; 0.8; 25.; 297.6; 311.02; 20000.; 30000.; 100000.; 999999. ];
  Alcotest.(check string) "past six digits" "4029.273"
    (Json.shortest_float 4029.273);
  Alcotest.(check string) "no suffix" "1000000" (Json.shortest_float 1e6)

let shortest_float_reads_back =
  QCheck.Test.make ~name:"float_of_string (shortest_float f) = f" ~count:1000
    QCheck.float (fun f ->
      QCheck.assume (Float.is_finite f);
      float_of_string (Json.shortest_float f) = f)

let test_print_containers () =
  Alcotest.(check string) "empty array" "[]" (Json.print (Json.Array []));
  Alcotest.(check string) "empty object" "{}" (Json.print (Json.Object []));
  Alcotest.(check string) "no whitespace" {|{"a":[1,true,null],"b":"x"}|}
    (Json.print
       (Json.Object
          [
            ("a", Json.Array [ Json.Int 1; Json.Bool true; Json.Null ]);
            ("b", Json.String "x");
          ]))

let test_print_hum_reparses () =
  let v =
    Json.Object
      [
        ("nested", Json.Array [ Json.Object [ ("k", Json.Int 1) ]; Json.Null ]);
        ("s", Json.String "line\nbreak");
        ("f", Json.Float 2.75);
      ]
  in
  Alcotest.check json "print_hum round-trips" v (parse_ok (Json.print_hum v))

(* ------------------------------------------------------------------ *)
(* Parsing *)

let test_parse_escapes () =
  check_parse "named escapes" (Json.String "\n\r\t\b\012\"\\/")
    {|"\n\r\t\b\f\"\\\/"|};
  check_parse "ascii \\u" (Json.String "A") {|"\u0041"|};
  check_parse "two-byte utf8" (Json.String "\xc3\xa9") {|"\u00e9"|};
  check_parse "three-byte utf8" (Json.String "\xe2\x82\xac") {|"\u20ac"|};
  check_parse "surrogate pair" (Json.String "\xf0\x9f\x98\x80")
    {|"\ud83d\ude00"|}

let test_parse_escape_errors () =
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "unpaired high surrogate" true
    (contains "unpaired high surrogate" (parse_err {|"\ud83d"|}));
  Alcotest.(check bool) "unpaired low surrogate" true
    (contains "unpaired low surrogate" (parse_err {|"\ude00"|}));
  Alcotest.(check bool) "invalid escape" true
    (contains "invalid escape" (parse_err {|"\q"|}));
  Alcotest.(check bool) "unescaped control byte" true
    (contains "unescaped control byte" (parse_err "\"a\nb\""));
  Alcotest.(check bool) "unterminated string" true
    (contains "unterminated string" (parse_err "\"abc"))

let test_parse_numbers () =
  check_parse "int" (Json.Int 42) "42";
  check_parse "negative zero int" (Json.Int 0) "-0";
  check_parse "max int" (Json.Int max_int) (string_of_int max_int);
  check_parse "min int" (Json.Int min_int) (string_of_int min_int);
  check_parse "fraction is float" (Json.Float 1.5) "1.5";
  check_parse "exponent is float" (Json.Float 1000.) "1e3";
  check_parse "signed exponent" (Json.Float 0.025) "2.5e-2";
  check_parse "negative float" (Json.Float (-0.5)) "-0.5";
  (* a literal beyond the int range degrades to Float, not an error *)
  check_parse "beyond int range" (Json.Float 1e19) "10000000000000000000"

let test_parse_number_errors () =
  List.iter
    (fun s -> ignore (parse_err s))
    [ "-"; "1."; ".5"; "1e"; "1e+"; "01x" ]

let test_parse_nesting () =
  check_parse "mixed nesting"
    (Json.Object
       [
         ( "a",
           Json.Array
             [
               Json.Object [ ("b", Json.Array [ Json.Int 1; Json.Int 2 ]) ];
               Json.Null;
             ] );
       ])
    {| { "a" : [ { "b" : [ 1 , 2 ] } , null ] } |};
  (* deep recursion: 200 levels of array nesting both ways *)
  let deep = ref (Json.Int 0) in
  for _ = 1 to 200 do
    deep := Json.Array [ !deep ]
  done;
  Alcotest.check json "deep nesting" !deep (parse_ok (Json.print !deep))

let test_parse_duplicate_keys () =
  let v = parse_ok {|{"k":1,"k":2}|} in
  Alcotest.check json "both fields kept"
    (Json.Object [ ("k", Json.Int 1); ("k", Json.Int 2) ])
    v;
  Alcotest.(check (option int)) "member returns the first" (Some 1)
    (Option.bind (Json.member "k" v) Json.to_int_opt)

let test_parse_positions () =
  let starts_with prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  Alcotest.(check bool) "offset in message" true
    (starts_with "offset 5:" (parse_err {|[1,2,x]|}));
  Alcotest.(check bool) "trailing input" true
    (starts_with "offset 3:" (parse_err "{} x"));
  Alcotest.(check bool) "truncated literal" true
    (String.length (parse_err "tru") > 0);
  Alcotest.(check bool) "empty input" true
    (starts_with "offset 0:" (parse_err ""))

let test_accessors () =
  let v = parse_ok {|{"s":"x","i":3,"f":2.0,"b":true,"l":[1]}|} in
  let get name = Option.get (Json.member name v) in
  Alcotest.(check (option string)) "string" (Some "x")
    (Json.to_string_opt (get "s"));
  Alcotest.(check (option bool)) "bool" (Some true)
    (Json.to_bool_opt (get "b"));
  Alcotest.(check (option int)) "int" (Some 3) (Json.to_int_opt (get "i"));
  Alcotest.(check (option int)) "integral float as int" (Some 2)
    (Json.to_int_opt (get "f"));
  Alcotest.(check (option int)) "fractional float is not an int" None
    (Json.to_int_opt (Json.Float 2.5));
  Alcotest.(check (option (float 0.))) "int as float" (Some 3.)
    (Json.to_float_opt (get "i"));
  Alcotest.(check (option int)) "list length" (Some 1)
    (Option.map List.length (Json.to_list_opt (get "l")));
  Alcotest.(check (option string)) "member on non-object" None
    (Option.bind (Json.member "s" (Json.Int 1)) Json.to_string_opt)

(* ------------------------------------------------------------------ *)
(* QCheck: the round-trip law *)

let json_gen =
  let open QCheck.Gen in
  (* arbitrary bytes: the printer passes non-control bytes through and
     escapes the rest, so any OCaml string must survive the trip *)
  let str = string_size (0 -- 8) ~gen:char in
  let scalar =
    frequency
      [
        (1, return Json.Null);
        (2, map (fun b -> Json.Bool b) bool);
        (3, map (fun i -> Json.Int i) int);
        ( 3,
          map
            (fun f -> Json.Float (if Float.is_finite f then f else 0.))
            float );
        (3, map (fun s -> Json.String s) str);
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [
               (3, scalar);
               ( 2,
                 map
                   (fun vs -> Json.Array vs)
                   (list_size (0 -- 4) (self (n / 2))) );
               ( 2,
                 map
                   (fun fields -> Json.Object fields)
                   (list_size (0 -- 4) (pair str (self (n / 2)))) );
             ])

let arbitrary_json = QCheck.make ~print:Json.print json_gen

let roundtrip_compact =
  QCheck.Test.make ~name:"parse (print v) = v" ~count:500 arbitrary_json
    (fun v -> Json.parse (Json.print v) = Ok v)

let roundtrip_hum =
  QCheck.Test.make ~name:"parse (print_hum v) = v" ~count:200 arbitrary_json
    (fun v -> Json.parse (Json.print_hum v) = Ok v)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "chop_util json"
    [
      ( "print",
        [
          Alcotest.test_case "scalars" `Quick test_print_scalars;
          Alcotest.test_case "escapes" `Quick test_print_escapes;
          Alcotest.test_case "floats" `Quick test_print_floats;
          Alcotest.test_case "containers" `Quick test_print_containers;
          Alcotest.test_case "print_hum reparses" `Quick
            test_print_hum_reparses;
        ] );
      ( "parse",
        [
          Alcotest.test_case "escapes" `Quick test_parse_escapes;
          Alcotest.test_case "escape errors" `Quick test_parse_escape_errors;
          Alcotest.test_case "numbers" `Quick test_parse_numbers;
          Alcotest.test_case "number errors" `Quick test_parse_number_errors;
          Alcotest.test_case "nesting" `Quick test_parse_nesting;
          Alcotest.test_case "duplicate keys" `Quick
            test_parse_duplicate_keys;
          Alcotest.test_case "error positions" `Quick test_parse_positions;
          Alcotest.test_case "accessors" `Quick test_accessors;
        ] );
      ( "roundtrip",
        [
          QCheck_alcotest.to_alcotest roundtrip_compact;
          QCheck_alcotest.to_alcotest roundtrip_hum;
          QCheck_alcotest.to_alcotest shortest_float_reads_back;
        ] );
    ]
