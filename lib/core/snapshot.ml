(* Versioned, durable session snapshots.

   A snapshot is the line-oriented face of Explore.Session.state: header,
   scalar fields, opaque meta lines for the owning layer (the server stores
   the session's open parameters there), then the spec and each undo/redo
   entry as embedded chopspec blocks framed by `spec <<<` ... `>>>`
   sentinels (chopspec lines are keyword-led, so the sentinel cannot
   collide).  Restoring re-parses the specs, which rebuilds each graph in
   its written construction order: node ids, and with them the prediction
   store's keys, come back as they were. *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type t = {
  spec : Spec.t;
  revision : int;
  pending : string list;
  undo : Spec.t list;
  redo : Spec.t list;
  meta : (string * string) list;
  unknown : string list;
}

let magic = "# chopsession v1"

let of_state ?(meta = []) (st : Explore.Session.state) =
  List.iter
    (fun (k, v) ->
      if k = "" || String.contains k ' ' || String.contains k '\n' then
        invalid_arg "Snapshot.of_state: meta key must be a single token";
      if String.contains v '\n' then
        invalid_arg "Snapshot.of_state: meta value must be a single line")
    meta;
  {
    spec = st.Explore.Session.st_spec;
    revision = st.Explore.Session.st_revision;
    pending = st.Explore.Session.st_pending;
    undo = st.Explore.Session.st_undo;
    redo = st.Explore.Session.st_redo;
    meta;
    unknown = [];
  }

let to_state s =
  {
    Explore.Session.st_spec = s.spec;
    st_revision = s.revision;
    st_pending = s.pending;
    st_undo = s.undo;
    st_redo = s.redo;
  }

let print s =
  let buf = Buffer.create 4096 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "%s\n" magic;
  addf "revision %d\n" s.revision;
  addf "pending%s\n" (String.concat "" (List.map (( ^ ) " ") s.pending));
  List.iter (fun (k, v) -> addf "meta %s %s\n" k v) s.meta;
  (* statements this binary does not understand, preserved verbatim so a
     newer writer's fields survive a round-trip through an older reader *)
  List.iter (fun l -> addf "%s\n" l) s.unknown;
  let block keyword spec =
    addf "%s <<<\n" keyword;
    let body = Specfile.print spec in
    Buffer.add_string buf body;
    if body = "" || body.[String.length body - 1] <> '\n' then
      Buffer.add_char buf '\n';
    addf ">>>\n"
  in
  block "spec" s.spec;
  List.iter (block "undo") s.undo;
  List.iter (block "redo") s.redo;
  Buffer.contents buf

let parse text =
  let lines = String.split_on_char '\n' text in
  (match lines with
  | first :: _ when String.trim first = magic -> ()
  | _ -> fail "not a chopsession snapshot (missing %S header)" magic);
  let revision = ref None in
  let pending = ref [] in
  let meta = ref [] in
  let spec = ref None in
  let undo = ref [] in
  let redo = ref [] in
  let unknown = ref [] in
  let parse_spec_block body keyword =
    match Specfile.parse body with
    | s -> s
    | exception Specfile.Parse_error (n, reason) ->
        fail "%s block, chopspec line %d: %s" keyword n reason
    | exception Spec.Invalid_spec reason ->
        fail "%s block: invalid spec: %s" keyword reason
  in
  let rec go = function
    | [] -> ()
    | line :: rest -> (
        let trimmed = String.trim line in
        if trimmed = "" || trimmed = magic then go rest
        else
          match String.split_on_char ' ' trimmed with
          | "revision" :: [ n ] -> (
              match int_of_string_opt n with
              | Some n when n >= 0 ->
                  revision := Some n;
                  go rest
              | _ -> fail "bad revision %S" n)
          | "pending" :: labels ->
              pending := List.filter (( <> ) "") labels;
              go rest
          | "meta" :: key :: _ ->
              let prefix = "meta " ^ key ^ " " in
              let value =
                if
                  String.length trimmed >= String.length prefix
                  && String.sub trimmed 0 (String.length prefix) = prefix
                then
                  String.sub trimmed (String.length prefix)
                    (String.length trimmed - String.length prefix)
                else ""
              in
              meta := (key, value) :: !meta;
              go rest
          | [ keyword; "<<<" ]
            when keyword = "spec" || keyword = "undo" || keyword = "redo" ->
              let rec body acc = function
                | [] -> fail "unterminated %s block" keyword
                | l :: tl when String.trim l = ">>>" ->
                    (String.concat "\n" (List.rev acc) ^ "\n", tl)
                | l :: tl -> body (l :: acc) tl
              in
              let text, rest = body [] rest in
              let s = parse_spec_block text keyword in
              (match keyword with
              | "spec" ->
                  if !spec <> None then fail "duplicate spec block";
                  spec := Some s
              | "undo" -> undo := s :: !undo
              | _ -> redo := s :: !redo);
              go rest
          | [ keyword; "<<<" ] ->
              (* a block statement from a newer format revision: keep the
                 frame and body verbatim *)
              let rec body acc = function
                | [] -> fail "unterminated %s block" keyword
                | l :: tl when String.trim l = ">>>" -> (List.rev acc, tl)
                | l :: tl -> body (l :: acc) tl
              in
              let body_lines, rest = body [] rest in
              unknown :=
                !unknown @ ((keyword ^ " <<<") :: body_lines) @ [ ">>>" ];
              go rest
          | _ :: _ ->
              (* a scalar statement from a newer format revision *)
              unknown := !unknown @ [ trimmed ];
              go rest
          | [] -> go rest)
  in
  go lines;
  let spec =
    match !spec with Some s -> s | None -> fail "snapshot has no spec block"
  in
  let revision =
    match !revision with
    | Some r -> r
    | None -> fail "snapshot has no revision"
  in
  {
    spec;
    revision;
    pending = !pending;
    undo = List.rev !undo;
    redo = List.rev !redo;
    meta = List.rev !meta;
    unknown = !unknown;
  }

(* Durable writes are atomic: a crash mid-write leaves the previous
   snapshot (or nothing), never a torn file a restore could half-read.
   [close_out] flushes, so a full disk raises here, before the rename
   could put an unwritten file in the snapshot's place. *)
let save path s =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  try
    output_string oc (print s);
    close_out oc;
    Sys.rename tmp path
  with e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let load path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse text
