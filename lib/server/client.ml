type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  mutable closed : bool;
}

let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let connect path =
  ignore_sigpipe ();
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  {
    fd;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
    closed = false;
  }

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try flush t.oc with Sys_error _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let send_line t line =
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc

let recv_line t =
  match input_line t.ic with
  | line -> Some line
  | exception (End_of_file | Sys_error _) -> None

let send t json = send_line t (Chop_util.Json.print json)

let recv t =
  match input_line t.ic with
  | line -> (
      match Chop_util.Json.parse line with
      | Ok json -> Ok (Some json)
      | Error msg -> Error (Printf.sprintf "malformed response: %s" msg))
  | exception (End_of_file | Sys_error _) -> Ok None

let closed_early = "connection closed before a response arrived"

let rpc t json =
  match send t json with
  | () -> (
      match recv t with
      | Ok (Some resp) -> Ok resp
      | Ok None -> Error closed_early
      | Error _ as e -> e)
  | exception (Sys_error msg | Failure msg) -> Error msg

(* ------------------------------------------------------------------ *)
(* Retries.  The schedule is a pure function of (seed, attempts) — an
   LCG-jittered exponential — so tests pin it exactly and two runs with
   one seed behave identically; the sleeping is injected for the same
   reason.  Retried conditions: the structured [overloaded] rejection and
   transient transport failures (nobody listening yet, peer restarting).
   Everything else — bad requests, deadline errors, malformed replies —
   returns immediately, so exit codes match the unretried client. *)

let backoff_delays ~seed ~attempts =
  let state = ref (seed land 0x3FFFFFFF) in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    float_of_int !state /. float_of_int 0x40000000
  in
  List.init attempts (fun i ->
      let base = Float.min (0.05 *. (2. ** float_of_int i)) 2.0 in
      base *. (0.5 +. (0.5 *. next ())))

let transient_errno = function
  | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ENOENT | Unix.EPIPE
  | Unix.EAGAIN | Unix.EINTR | Unix.ETIMEDOUT ->
      true
  | _ -> false

let rpc_retrying ?(sleep = Unix.sleepf) ?(retries = 0) ?(seed = 1) ~socket json
    =
  let attempt () =
    match connect socket with
    | exception Unix.Unix_error (e, _, _) when transient_errno e ->
        `Transient
          (Error
             (Printf.sprintf "cannot connect to %s: %s" socket
                (Unix.error_message e)))
    | exception Unix.Unix_error (e, _, _) ->
        `Final
          (Error
             (Printf.sprintf "cannot connect to %s: %s" socket
                (Unix.error_message e)))
    | client -> (
        let r = rpc client json in
        close client;
        match r with
        | Ok resp when Protocol.response_error_code resp = Some "overloaded" ->
            `Transient (Ok resp)
        | Error msg when msg = closed_early -> `Transient (Error msg)
        | (Ok _ | Error _) as final -> `Final final)
  in
  let rec go delays =
    match (attempt (), delays) with
    | `Final r, _ -> r
    | `Transient r, [] -> r
    | `Transient _, d :: rest ->
        sleep d;
        go rest
  in
  go (backoff_delays ~seed ~attempts:(max 0 retries))
