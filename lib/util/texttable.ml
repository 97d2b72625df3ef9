type align = Left | Right | Center
type line = Row of string list | Sep

type t = {
  title : string option;
  headers : (string * align) list;
  mutable lines : line list; (* reversed *)
}

let create ?title headers = { title; headers; lines = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg "Texttable.add_row: wrong number of cells";
  t.lines <- Row row :: t.lines

let add_separator t = t.lines <- Sep :: t.lines

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = width - n in
    match align with
    | Left -> s ^ String.make fill ' '
    | Right -> String.make fill ' ' ^ s
    | Center ->
        let l = fill / 2 in
        String.make l ' ' ^ s ^ String.make (fill - l) ' '

let render t =
  (* the bottom rule below closes the table: a separator after the last
     row would double it *)
  let rec drop_trailing_seps = function
    | Sep :: rest -> drop_trailing_seps rest
    | lines -> lines
  in
  let lines = List.rev (drop_trailing_seps t.lines) in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) row
  in
  measure (List.map fst t.headers);
  List.iter (function Row r -> measure r | Sep -> ()) lines;
  let buf = Buffer.create 256 in
  let rule () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let emit_row aligns row =
    Buffer.add_char buf '|';
    List.iteri
      (fun i c ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad (List.nth aligns i) widths.(i) c);
        Buffer.add_string buf " |")
      row;
    Buffer.add_char buf '\n'
  in
  (match t.title with
  | Some title ->
      Buffer.add_string buf title;
      Buffer.add_char buf '\n'
  | None -> ());
  let aligns = List.map snd t.headers in
  rule ();
  emit_row (List.map (fun _ -> Center) t.headers) (List.map fst t.headers);
  rule ();
  List.iter (function Row r -> emit_row aligns r | Sep -> rule ()) lines;
  rule ();
  Buffer.contents buf

let print t = print_string (render t)
let cell_int = string_of_int
let cell_float ?(decimals = 2) f = Printf.sprintf "%.*f" decimals f
