(* Tests for the Chop_util.Json codec: escapes, the int/float
   distinction, nesting, positional errors, accessors, the QCheck
   round-trip law [parse (print v) = Ok v], and differential properties
   against a byte-at-a-time reference codec on long strings, string
   literals, truncated and mutated inputs, and floats. *)

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

(* values whose strings (values and field names) come from [str], nested
   at most log2 of a [size] draw deep *)
let json_gen_of ~size str =
  let open QCheck.Gen in
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
  sized_size size
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

(* arbitrary bytes: the printer passes non-control bytes through and
   escapes the rest, so any OCaml string must survive the trip *)
let json_gen =
  QCheck.Gen.(json_gen_of ~size:nat (string_size (0 -- 8) ~gen:char))

let arbitrary_json = QCheck.make ~print:Json.print json_gen

let roundtrip_compact =
  QCheck.Test.make ~name:"parse (print v) = v" ~count:500 arbitrary_json
    (fun v -> Json.parse (Json.print v) = Ok v)

let roundtrip_hum =
  QCheck.Test.make ~name:"parse (print_hum v) = v" ~count:200 arbitrary_json
    (fun v -> Json.parse (Json.print_hum v) = Ok v)

(* ------------------------------------------------------------------ *)
(* The reference codec: the same printer and parser working one byte at
   a time (an escape-free string still goes through the buffer, byte by
   byte; every float goes through the trial printing).  The codec copies
   and scans whole runs of plain bytes instead, and must print the same
   bytes and parse to the same values and the same errors, offsets
   included. *)

module Reference = struct
  type t = Json.t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | Array of t list
    | Object of (string * t) list

  let shortest_float f =
    let s15 = Printf.sprintf "%.15g" f in
    if float_of_string s15 = f then s15
    else
      let s16 = Printf.sprintf "%.16g" f in
      if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f

  let float_repr f =
    if not (Float.is_finite f) then
      invalid_arg "Json.print: non-finite floats have no JSON representation";
    let shortest = shortest_float f in
    (* keep the value a float on re-parse: "1" would read back as Int 1 *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') shortest then
      shortest
    else shortest ^ ".0"

  let escape_string buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let rec print_to buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool true -> Buffer.add_string buf "true"
    | Bool false -> Buffer.add_string buf "false"
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s -> escape_string buf s
    | Array vs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            print_to buf v)
          vs;
        Buffer.add_char buf ']'
    | Object fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            escape_string buf k;
            Buffer.add_char buf ':';
            print_to buf v)
          fields;
        Buffer.add_char buf '}'

  let print v =
    let buf = Buffer.create 256 in
    print_to buf v;
    Buffer.contents buf

  exception Parse_error of int * string

  let parse_exn_raw input =
    let n = String.length input in
    let pos = ref 0 in
    let error fmt =
      Printf.ksprintf (fun msg -> raise (Parse_error (!pos, msg))) fmt
    in
    let peek () = if !pos < n then Some input.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while
        !pos < n
        && (match input.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        advance ()
      done
    in
    let expect c =
      match peek () with
      | Some d when d = c -> advance ()
      | Some d -> error "expected '%c', found '%c'" c d
      | None -> error "expected '%c', found end of input" c
    in
    let literal word value =
      if !pos + String.length word <= n
         && String.sub input !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        value
      end
      else error "invalid literal"
    in
    let hex4 () =
      if !pos + 4 > n then error "truncated \\u escape";
      let v = ref 0 in
      for _ = 1 to 4 do
        let c = input.[!pos] in
        let d =
          match c with
          | '0' .. '9' -> Char.code c - Char.code '0'
          | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
          | _ -> error "invalid hex digit '%c' in \\u escape" c
        in
        v := (!v * 16) + d;
        advance ()
      done;
      !v
    in
    let add_utf8 buf cp =
      if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else if cp < 0x10000 then begin
        Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec loop () =
        if !pos >= n then error "unterminated string";
        let c = input.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' -> (
            if !pos >= n then error "unterminated escape";
            let e = input.[!pos] in
            advance ();
            (match e with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                let cp = hex4 () in
                if cp >= 0xD800 && cp <= 0xDBFF then begin
                  (* high surrogate: require the low half *)
                  if
                    !pos + 1 < n && input.[!pos] = '\\' && input.[!pos + 1] = 'u'
                  then begin
                    advance ();
                    advance ();
                    let lo = hex4 () in
                    if lo < 0xDC00 || lo > 0xDFFF then
                      error "invalid low surrogate \\u%04x" lo;
                    add_utf8 buf
                      (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
                  end
                  else error "unpaired high surrogate \\u%04x" cp
                end
                else if cp >= 0xDC00 && cp <= 0xDFFF then
                  error "unpaired low surrogate \\u%04x" cp
                else add_utf8 buf cp
            | c -> error "invalid escape '\\%c'" c);
            loop ())
        | c when Char.code c < 0x20 ->
            error "unescaped control byte 0x%02x in string" (Char.code c)
        | c ->
            Buffer.add_char buf c;
            loop ()
      in
      loop ()
    in
    let parse_number () =
      let start = !pos in
      let is_float = ref false in
      if peek () = Some '-' then advance ();
      let digits () =
        let saw = ref false in
        while
          !pos < n && match input.[!pos] with '0' .. '9' -> true | _ -> false
        do
          saw := true;
          advance ()
        done;
        if not !saw then error "expected a digit"
      in
      digits ();
      if peek () = Some '.' then begin
        is_float := true;
        advance ();
        digits ()
      end;
      (match peek () with
      | Some ('e' | 'E') ->
          is_float := true;
          advance ();
          (match peek () with Some ('+' | '-') -> advance () | _ -> ());
          digits ()
      | _ -> ());
      let text = String.sub input start (!pos - start) in
      if !is_float then Float (float_of_string text)
      else
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> Float (float_of_string text) (* beyond int range *)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> error "expected a value, found end of input"
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Object []
          end
          else begin
            let fields = ref [] in
            let rec fields_loop () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              (match peek () with
              | Some ':' -> advance ()
              | _ -> error "expected ':' after object key");
              let v = parse_value () in
              fields := (k, v) :: !fields;
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  fields_loop ()
              | Some '}' -> advance ()
              | _ -> error "expected ',' or '}' in object"
            in
            fields_loop ();
            Object (List.rev !fields)
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Array []
          end
          else begin
            let items = ref [] in
            let rec items_loop () =
              let v = parse_value () in
              items := v :: !items;
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items_loop ()
              | Some ']' -> advance ()
              | _ -> error "expected ',' or ']' in array"
            in
            items_loop ();
            Array (List.rev !items)
          end
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> error "unexpected character '%c'" c
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then error "trailing input after value";
    v

  let parse input =
    match parse_exn_raw input with
    | v -> Ok v
    | exception Parse_error (pos, msg) ->
        Error (Printf.sprintf "offset %d: %s" pos msg)
end

(* Strings of 0-4 KB made of runs: plain ASCII runs of up to 300 bytes,
   every byte the printer escapes by name, other control bytes, raw
   UTF-8 (two, three and four bytes, the last an astral code point) and
   stray bytes from DEL up. *)
let long_str =
  let open QCheck.Gen in
  let piece =
    frequency
      [
        (6, string_size (1 -- 300) ~gen:(char_range ' ' '~'));
        (2, oneofl [ "\""; "\\"; "\n"; "\r"; "\t"; "\b"; "\012"; "/" ]);
        (1, map (fun c -> String.make 1 c) (char_range '\000' '\031'));
        (2, oneofl [ "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x98\x80" ]);
        (1, map (fun c -> String.make 1 c) (char_range '\127' '\255'));
      ]
  in
  int_range 0 4096 >>= fun size ->
  let rec fill acc len =
    if len >= size then
      return (String.sub (String.concat "" (List.rev acc)) 0 size)
    else piece >>= fun p -> fill (p :: acc) (len + String.length p)
  in
  fill [] 0

let json_gen_long = json_gen_of ~size:QCheck.Gen.(0 -- 12) long_str

(* JSON string literals of up to 4 KB as a peer may send them: plain
   runs, every short escape, \u escapes of control bytes and of BMP code
   points in either case of hex digit, surrogate pairs, raw UTF-8 and
   stray bytes from DEL up *)
let literal_gen =
  let open QCheck.Gen in
  (* a \u escape of [cp], its hex digits in either case *)
  let u cp =
    map
      (fun up -> Printf.sprintf (if up then "\\u%04X" else "\\u%04x") cp)
      bool
  in
  let piece =
    frequency
      [
        ( 6,
          string_size (1 -- 300) ~gen:(char_range ' ' '~')
          >|= String.map (fun c -> if c = '"' || c = '\\' then '.' else c) );
        ( 3,
          oneofl
            [ {|\"|}; {|\\|}; {|\/|}; {|\b|}; {|\f|}; {|\n|}; {|\r|};
              {|\t|} ] );
        (1, map (fun c -> Printf.sprintf "\\u%04x" c) (int_range 0 0x1f));
        ( 2,
          int_range 0x20 0xFFFF >>= fun cp ->
          u (if cp >= 0xD800 && cp <= 0xDFFF then cp - 0x800 else cp) );
        ( 2,
          map2 ( ^ )
            (int_range 0xD800 0xDBFF >>= u)
            (int_range 0xDC00 0xDFFF >>= u) );
        (2, oneofl [ "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x98\x80" ]);
        (1, map (fun c -> String.make 1 c) (char_range '\127' '\255'));
      ]
  in
  int_range 0 4096 >>= fun size ->
  let rec fill acc len =
    if len >= size then return ("\"" ^ String.concat "" (List.rev acc) ^ "\"")
    else piece >>= fun p -> fill (p :: acc) (len + String.length p)
  in
  fill [] 0

(* bytes that steer the parser into each of its paths, and any byte *)
let mutant_byte =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          oneofl
            [ '"'; '\\'; 'u'; 'n'; '/'; 'd'; 'D'; 'c'; '8'; '0'; '9'; 'e';
              'E'; '-'; '+'; '.'; ' '; ','; ':'; '{'; '}'; '['; ']'; 't';
              'f'; 'x'; '\n'; '\000'; '\031'; '\128'; '\255' ] );
        (1, char);
      ])

(* [s] cut at 8 random lengths and with 8 single bytes replaced *)
let variants_gen s =
  let open QCheck.Gen in
  let n = String.length s in
  let cut = map (fun k -> String.sub s 0 k) (int_range 0 n) in
  let mutate =
    if n = 0 then return s
    else
      map2
        (fun i c -> String.mapi (fun j d -> if j = i then c else d) s)
        (int_range 0 (n - 1)) mutant_byte
  in
  map2 ( @ ) (list_repeat 8 cut) (list_repeat 8 mutate)

let same_parse s = Json.parse s = Reference.parse s

let long_prints_agree =
  QCheck.Test.make ~name:"long strings match the reference"
    ~count:200
    (QCheck.make ~print:Json.print json_gen_long)
    (fun v ->
      let s = Json.print v in
      String.equal s (Reference.print v)
      && Json.parse s = Ok v && same_parse s)

let mutated_prints_agree =
  QCheck.Test.make ~name:"cut and mutated prints fail alike"
    ~count:200
    (QCheck.make ~print:(fun (_, vs) -> String.concat "\n" vs)
       QCheck.Gen.(json_gen_long >>= fun v ->
                   let s = Json.print v in
                   pair (return s) (variants_gen s)))
    (fun (s, vs) -> List.for_all same_parse (s :: vs))

let literals_agree =
  QCheck.Test.make ~name:"string literals and their mutants"
    ~count:300
    (QCheck.make ~print:(fun (s, _) -> s)
       QCheck.Gen.(literal_gen >>= fun s -> pair (return s) (variants_gen s)))
    (fun (s, vs) ->
      Result.is_ok (Json.parse s) && List.for_all same_parse (s :: vs))

(* integral values on both sides of 10^15, signed zeros, subnormals,
   halves, non-finite values and arbitrary bit patterns *)
let float_gen =
  let open QCheck.Gen in
  frequency
    [
      (3, map float_of_int (int_range (-1_000_000) 1_000_000));
      (2, map float_of_int (int_range (-(1 lsl 53)) (1 lsl 53)));
      ( 2,
        oneofl
          [ 0.; -0.; 1e15; -1e15; 1e15 -. 1.; 1e15 +. 1.; -.(1e15 -. 1.);
            -.(1e15 +. 1.); 1e16; 2. ** 53.; -.(2. ** 53.); 1e300;
            Float.min_float; Float.max_float; 4029.273; 0.1;
            Float.nan; Float.infinity; Float.neg_infinity ] );
      ( 2,
        map
          (fun m -> ldexp (float_of_int m) (-1074))
          (int_range (-(1 lsl 52)) (1 lsl 52)) );
      ( 2,
        map
          (fun f -> Float.of_int (int_of_float f) +. 0.5)
          (float_range (-1e6) 1e6) );
      ( 3,
        map2
          (fun hi lo ->
            Int64.float_of_bits
              Int64.(logor (shift_left (of_int hi) 32) (of_int lo)))
          (int_range 0 0xFFFFFFFF) (int_range 0 0xFFFFFFFF) );
      (2, float);
    ]

let floats_print_alike =
  QCheck.Test.make ~name:"floats print byte for byte" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%h") float_gen)
    (fun f ->
      String.equal (Json.shortest_float f) (Reference.shortest_float f)
      && ((not (Float.is_finite f))
         || String.equal (Json.print (Json.Float f))
              (Reference.print (Reference.Float f))))

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
      ( "reference",
        [
          QCheck_alcotest.to_alcotest long_prints_agree;
          QCheck_alcotest.to_alcotest mutated_prints_agree;
          QCheck_alcotest.to_alcotest literals_agree;
          QCheck_alcotest.to_alcotest floats_print_alike;
        ] );
    ]
