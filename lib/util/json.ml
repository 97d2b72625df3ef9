type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Array of t list
  | Object of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing *)

(* Shortest decimal form that reads back to the identical float.  %.17g
   always round-trips a binary64; try the two shorter precisions first so
   common values print as "0.1" rather than "0.1000000000000000056".
   Integral values below 10^15 skip the trials: %.15g prints them in
   fixed notation, digit for digit as [string_of_int] does, and they read
   back exactly.  -0.0 is left to the trials, which print it "-0". *)
let shortest_float f =
  if
    Float.is_integer f && Float.abs f < 1e15
    && not (f = 0. && Float.sign_bit f)
  then string_of_int (int_of_float f)
  else
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

(* The bytes a JSON string cannot hold raw are the quote, the backslash
   and the control bytes; the others are plain.  [plain_word] tests eight
   bytes at once, with the zero-byte test [(x - 0x01..) land lnot x land
   0x80..] on the word xor-ed with each of the two characters, and its
   below-0x20 form on the word itself.  A test may flag a plain byte next
   to a flagged one, but never flags a word of plain bytes, so a word it
   passes is plain.  Byte order does not matter. *)
let[@inline] has_below x k = Int64.logand (Int64.sub x k) (Int64.lognot x)

let[@inline] plain_word s i =
  let w = String.get_int64_ne s i in
  let q = Int64.logxor w 0x2222222222222222L
  and b = Int64.logxor w 0x5C5C5C5C5C5C5C5CL in
  Int64.logand
    (Int64.logor
       (has_below w 0x2020202020202020L)
       (Int64.logor
          (has_below q 0x0101010101010101L)
          (has_below b 0x0101010101010101L)))
    0x8080808080808080L
  = 0L

(* The end of the run of plain bytes in [s] from [i]: the index of the
   first byte that is not plain, or [n].  Word by word, then byte by byte
   from the word that holds it.  Both directions work run by run from
   here.  The byte test is written out in the loop, where the compiler
   keeps it inline. *)
let plain_end s i n =
  let i = ref i in
  while !i + 8 <= n && plain_word s !i do
    i := !i + 8
  done;
  while
    !i < n
    &&
    let c = String.unsafe_get s !i in
    c <> '"' && c <> '\\' && Char.code c >= 0x20
  do
    incr i
  done;
  !i

let escape_string buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let rec go start =
    let stop = plain_end s start n in
    Buffer.add_substring buf s start (stop - start);
    if stop < n then begin
      (match s.[stop] with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
      go (stop + 1)
    end
  in
  go 0;
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

let print_hum v =
  let buf = Buffer.create 256 in
  let pad n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let rec go depth = function
    | (Null | Bool _ | Int _ | Float _ | String _) as v -> print_to buf v
    | Array [] -> Buffer.add_string buf "[]"
    | Array vs ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (depth + 1);
            go (depth + 1) v)
          vs;
        Buffer.add_char buf '\n';
        pad depth;
        Buffer.add_char buf ']'
    | Object [] -> Buffer.add_string buf "{}"
    | Object fields ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (depth + 1);
            escape_string buf k;
            Buffer.add_string buf ": ";
            go (depth + 1) v)
          fields;
        Buffer.add_char buf '\n';
        pad depth;
        Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing *)

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
  (* A string without an escape is one [String.sub].  The others decode
     their plain runs and escapes into the one buffer of this parse, made
     at the first of them as large as the rest of the input: no string
     after that point decodes to more bytes, so it never grows.  Strings
     do not nest, and each ends in [Buffer.contents]. *)
  let string_buf = ref None in
  let buffer () =
    match !string_buf with
    | Some buf ->
        Buffer.clear buf;
        buf
    | None ->
        let buf = Buffer.create (n - !pos) in
        string_buf := Some buf;
        buf
  in
  let escape buf =
    if !pos >= n then error "unterminated escape";
    let e = input.[!pos] in
    advance ();
    match e with
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
          if !pos + 1 < n && input.[!pos] = '\\' && input.[!pos + 1] = 'u'
          then begin
            advance ();
            advance ();
            let lo = hex4 () in
            if lo < 0xDC00 || lo > 0xDFFF then
              error "invalid low surrogate \\u%04x" lo;
            add_utf8 buf (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
          end
          else error "unpaired high surrogate \\u%04x" cp
        end
        else if cp >= 0xDC00 && cp <= 0xDFFF then
          error "unpaired low surrogate \\u%04x" cp
        else add_utf8 buf cp
    | c -> error "invalid escape '\\%c'" c
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    let stop = plain_end input start n in
    if stop < n && input.[stop] = '"' then begin
      pos := stop + 1;
      String.sub input start (stop - start)
    end
    else begin
      let buf = buffer () in
      (* [stop] ends the plain run from [start] *)
      let rec run start stop =
        Buffer.add_substring buf input start (stop - start);
        pos := stop;
        if !pos >= n then error "unterminated string";
        let c = input.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' ->
            escape buf;
            run !pos (plain_end input !pos n)
        | c -> error "unescaped control byte 0x%02x in string" (Char.code c)
      in
      run start stop
    end
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

let parse_exn input =
  match parse input with Ok v -> v | Error msg -> failwith msg

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member name = function
  | Object fields ->
      let rec find = function
        | [] -> None
        | (k, v) :: rest -> if String.equal k name then Some v else find rest
      in
      find fields
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None

let to_int_opt = function
  | Int i -> Some i
  | Float f when Float.is_integer f && Float.abs f <= 2. ** 52. ->
      Some (int_of_float f)
  | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_list_opt = function Array vs -> Some vs | _ -> None
