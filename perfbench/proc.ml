(* Child processes ([chop serve], [chop gateway]) and memory readings. *)

type child = { pid : int; name : string; socket : string }

(* Directory for sockets and traces, relative to the checkout root the
   benchmark runs from.  Socket paths are passed relative, so they are
   byte-identical in every run and every checkout: the gateway's ring
   hashes the backend path strings, and a path that changed between runs
   would deal the keys to the backends differently each time. *)
let run_dir = "_perfbench"

let ensure_run_dir () =
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755

let live : child list ref = ref []

let spawn ~chop ~name ~socket args =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  (* the access log a default [chop serve] writes goes to a file beside
     the sockets, not into the benchmark's own output *)
  let log =
    Unix.openfile (Filename.concat run_dir (name ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process chop (Array.of_list (chop :: args)) Unix.stdin log log
  in
  Unix.close log;
  let c = { pid; name; socket } in
  live := c :: !live;
  c

(* Tight connect poll: 1 ms between attempts, so readiness is seen within
   a millisecond of the listener binding rather than in coarse retry
   steps.  Fails if the child exits or 30 s pass. *)
let wait_ready c =
  let deadline = Int64.add (Clock.now_ns ()) 30_000_000_000L in
  let rec go () =
    match Chop_server.Client.connect c.socket with
    | conn -> Chop_server.Client.close conn
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        (match Unix.waitpid [ Unix.WNOHANG ] c.pid with
        | 0, _ -> ()
        | _ -> failwith (c.name ^ " exited before it was ready"));
        if Clock.now_ns () > deadline then
          failwith (c.name ^ " not ready after 30 s");
        Unix.sleepf 0.001;
        go ()
  in
  go ()

(* Peak resident set ("VmHWM") of a live process, in MB. *)
let vmhwm_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* Seconds of CPU time the hypervisor gave to other guests while this
   host's CPUs had work ("steal" in /proc/stat, in 1/100 s), summed over
   the host's CPUs, and the number of those CPUs; [None] where it cannot
   be read.  On a shared host it explains most of the spread between
   runs, so every run prints it. *)
let steal_s () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> None
  | ic ->
      let rec lines acc =
        match input_line ic with
        | l -> lines (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      let all = lines [] in
      close_in ic;
      let cpus =
        List.length
          (List.filter
             (fun l -> String.length l > 3 && String.sub l 0 3 = "cpu" && l.[3] <> ' ')
             all)
      in
      Option.bind (List.nth_opt all 0) (fun l ->
          match List.filter (( <> ) "") (String.split_on_char ' ' l) with
          | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
              Option.map (fun t -> (float_of_int t /. 100., cpus)) (int_of_string_opt steal)
          | _ -> None)

let stop c =
  if List.memq c !live then begin
    live := List.filter (fun x -> x != c) !live;
    (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Int64.add (Clock.now_ns ()) 10_000_000_000L in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] c.pid with
      | 0, _ when Clock.now_ns () < deadline ->
          Unix.sleepf 0.002;
          reap ()
      | 0, _ ->
          (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] c.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    reap ();
    try Unix.unlink c.socket with Unix.Unix_error _ -> ()
  end

let stop_all () = List.iter stop !live
