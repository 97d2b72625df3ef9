(* The one transport behind chop serve and chop gateway.  See
   listener.mli for the contract.  The points that matter: every send
   takes its connection's mutex and drops the line once the connection
   is closed, and only the connection's reading thread closes the
   descriptor, once, under that same mutex, when its loop ends — so a
   response finishing after its client left can never reach the next
   client handed the same descriptor number, and [close] never pulls a
   descriptor out from under a thread still blocked reading it. *)

type conn = {
  fd : Unix.file_descr option;  (* None on stdio: stdout is never closed *)
  oc : out_channel;
  mu : Mutex.t;
  mutable closed : bool;
}

type t = {
  socket_path : string option;
  listen_fd : Unix.file_descr option;
  log_oc : out_channel option;
  log_mu : Mutex.t;
  stopping : bool Atomic.t;
  conns_mu : Mutex.t;
  mutable conns : conn list;
}

type handler = send:(string -> unit) -> (string -> unit) * (unit -> unit)

let bind path =
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> raise (Unix.Unix_error (Unix.EEXIST, "bind", path))
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd 16
   with e ->
     Unix.close fd;
     raise e);
  fd

let create ~socket_path ~log =
  Client.ignore_sigpipe ();
  {
    socket_path;
    listen_fd = Option.map bind socket_path;
    log_oc = log;
    log_mu = Mutex.create ();
    stopping = Atomic.make false;
    conns_mu = Mutex.create ();
    conns = [];
  }

let stop t = Atomic.set t.stopping true
let stopping t = Atomic.get t.stopping

(* ------------------------------------------------------------------ *)
(* Log                                                                 *)

let timestamp now =
  let whole = Float.of_int (int_of_float now) in
  let ms = min 999 (int_of_float ((now -. whole) *. 1000.)) in
  let tm = Unix.gmtime whole in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec ms

let log t line =
  match t.log_oc with
  | None -> ()
  | Some oc ->
      let line = timestamp (Unix.gettimeofday ()) ^ " " ^ line in
      Mutex.lock t.log_mu;
      (try
         output_string oc line;
         output_char oc '\n';
         flush oc
       with Sys_error _ -> ());
      Mutex.unlock t.log_mu

let logf t fmt = Printf.ksprintf (log t) fmt

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)

let send c line =
  Mutex.lock c.mu;
  (if not c.closed then
     try
       output_string c.oc line;
       output_char c.oc '\n';
       flush c.oc
     with Sys_error _ | Unix.Unix_error _ -> ());
  Mutex.unlock c.mu

(* registered by the accepting thread, so a connection accepted just
   before [stop] is still in the set [close] ends *)
let open_conn t fd oc =
  let c = { fd; oc; mu = Mutex.create (); closed = false } in
  Mutex.lock t.conns_mu;
  t.conns <- c :: t.conns;
  Mutex.unlock t.conns_mu;
  c

(* [close]: later sends are dropped, and shutting the socket down wakes
   the reader blocked in [read] with end of input; the reader then closes
   the descriptor.  A connection whose reader has already finished is
   left alone. *)
let shutdown_conn c =
  Mutex.lock c.mu;
  if not c.closed then begin
    c.closed <- true;
    Option.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      c.fd
  end;
  Mutex.unlock c.mu

(* the reader, once its loop has ended: the one place a descriptor is
   closed *)
let close_conn c =
  Mutex.lock c.mu;
  c.closed <- true;
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) c.fd;
  Mutex.unlock c.mu

let unregister t c =
  Mutex.lock t.conns_mu;
  t.conns <- List.filter (fun c' -> c' != c) t.conns;
  Mutex.unlock t.conns_mu

let conn_loop t handler c ic =
  let on_line, on_close = handler ~send:(send c) in
  (try
     while true do
       on_line (input_line ic)
     done
   with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
  close_conn c;
  unregister t c;
  on_close ()

let accept_loop t handler fd =
  while not (stopping t) do
    match Unix.select [ fd ] [] [] 0.25 with
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept fd with
        | cfd, _ ->
            let c = open_conn t (Some cfd) (Unix.out_channel_of_descr cfd) in
            ignore
              (Thread.create (conn_loop t handler c)
                 (Unix.in_channel_of_descr cfd))
        | exception
            Unix.Unix_error
              ( (Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK
                | Unix.ECONNABORTED),
                _,
                _ ) ->
            ())
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> ()
  done

(* stdout stays writable after the input ends — the owner may still be
   draining responses — until [close] marks the connection closed. *)
let stdio_loop t handler =
  let c = open_conn t None stdout in
  let on_line, on_close = handler ~send:(send c) in
  (try
     while not (stopping t) do
       on_line (input_line stdin)
     done
   with End_of_file | Sys_error _ -> ());
  on_close ()

let install_signals t =
  let h = Sys.Signal_handle (fun _ -> stop t) in
  (try Sys.set_signal Sys.sigterm h with Invalid_argument _ | Sys_error _ -> ());
  try Sys.set_signal Sys.sigint h with Invalid_argument _ | Sys_error _ -> ()

let run ~signals t handler =
  if signals then install_signals t;
  match t.listen_fd with
  | Some fd -> accept_loop t handler fd
  | None -> stdio_loop t handler

let close t =
  Mutex.lock t.conns_mu;
  let cs = t.conns in
  t.conns <- [];
  Mutex.unlock t.conns_mu;
  List.iter shutdown_conn cs;
  match (t.listen_fd, t.socket_path) with
  | Some fd, Some path ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ()
