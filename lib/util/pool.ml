(* A persistent fixed-size worker pool over OCaml 5 domains.

   Helper domains are spawned once at [create] and parked on a condition
   variable between fork-join batches, so repeated [run] calls (the
   exploration engine issues one per prediction batch and one per search)
   pay the domain-spawn cost exactly once per pool instead of once per
   call.  Work is handed out in contiguous index chunks of
   [max 1 (n / (8 * jobs))] tasks drawn from a single atomic cursor:
   large enough to keep cursor contention negligible, small enough to
   balance uneven task costs. *)

type run_stats = {
  worker_busy : float array;
  chunk_count : int;
}

(* One fork-join batch.  [job i] runs task [i] and stores its result (or
   exception) — it never raises, so a task failure can never kill a
   worker domain.  Each participant defers its contribution to [finished]
   until after it has written its [busy] slot; the caller only reads the
   batch's side arrays once [finished] reaches [n], so those writes are
   published by the final atomic add (participants that ran zero tasks
   never write at all). *)
type batch = {
  job : int -> unit;
  n : int;
  chunk : int;
  cursor : int Atomic.t;
  finished : int Atomic.t;
  chunks_taken : int Atomic.t;
  busy : float array;  (* per-participant busy seconds; slot 0 = caller *)
}

type t = {
  size : int;  (* requested parallelism, as reported by [jobs] *)
  helpers : int;  (* helper domains actually spawned; see [create] *)
  lock : Mutex.t;
  submit : Mutex.t;
      (* held for a whole batch by the submitting thread: the batch slot
         below is single-occupancy, so concurrent submitters (server
         request threads sharing one pool) must not overlap.  Taken with
         [try_lock]; a loser runs its batch inline instead of blocking,
         which also keeps nested submissions from a worker domain
         deadlock-free. *)
  work_ready : Condition.t;  (* a new batch was published, or shutdown *)
  work_done : Condition.t;  (* the current batch may be complete *)
  mutable batch : batch option;
  mutable generation : int;  (* bumped when a batch is published *)
  stopped : bool Atomic.t;
  mutable workers : unit Domain.t list;  (* helpers still to be joined *)
}

let jobs t = t.size

let participate b ~slot =
  let t0 = Unix.gettimeofday () in
  let completed = ref 0 in
  let running = ref true in
  while !running do
    let lo = Atomic.fetch_and_add b.cursor b.chunk in
    if lo >= b.n then running := false
    else begin
      ignore (Atomic.fetch_and_add b.chunks_taken 1);
      let hi = min b.n (lo + b.chunk) in
      for i = lo to hi - 1 do
        b.job i
      done;
      completed := !completed + (hi - lo)
    end
  done;
  if !completed > 0 then begin
    b.busy.(slot) <- Unix.gettimeofday () -. t0;
    ignore (Atomic.fetch_and_add b.finished !completed)
  end

let worker_main t ~slot =
  let last_gen = ref 0 in
  Mutex.lock t.lock;
  let rec loop () =
    if Atomic.get t.stopped then Mutex.unlock t.lock
    else if t.generation = !last_gen then begin
      Condition.wait t.work_ready t.lock;
      loop ()
    end
    else begin
      last_gen := t.generation;
      match t.batch with
      | None -> loop ()
      | Some b ->
          Mutex.unlock t.lock;
          participate b ~slot;
          Mutex.lock t.lock;
          if Atomic.get b.finished >= b.n then Condition.broadcast t.work_done;
          loop ()
    end
  in
  loop ()

(* The backstop for pools that are dropped without [shutdown]: ask the
   workers to exit, without taking the pool lock (a finaliser can run on
   a domain that holds it) and without joining (a finaliser must not
   block).  The broadcast-without-mutex can lose a wakeup in a rare race,
   which merely leaves the domain parked — no worse than no backstop. *)
let release t =
  Atomic.set t.stopped true;
  Condition.broadcast t.work_ready

let make_pool ~jobs ~helpers =
  let t =
    {
      size = jobs;
      helpers;
      lock = Mutex.create ();
      submit = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      batch = None;
      generation = 0;
      stopped = Atomic.make false;
      workers = [];
    }
  in
  if helpers > 0 then begin
    t.workers <-
      List.init helpers (fun i ->
          Domain.spawn (fun () -> worker_main t ~slot:(i + 1)));
    Gc.finalise release t
  end;
  t

let sequential = make_pool ~jobs:1 ~helpers:0

let create ?(oversubscribe = false) ~jobs () =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  (* never spawn more domains than the host has cores unless explicitly
     asked to: OCaml 5 minor collections are stop-the-world barriers
     across every running domain, so oversubscribed domains multiply
     wall time instead of hiding latency *)
  let parallelism =
    if oversubscribe then jobs
    else min jobs (Domain.recommended_domain_count ())
  in
  make_pool ~jobs ~helpers:(parallelism - 1)

let shutdown t =
  if t.size > 1 then begin
    Mutex.lock t.lock;
    Atomic.set t.stopped true;
    Condition.broadcast t.work_ready;
    let ws = t.workers in
    t.workers <- [];
    Mutex.unlock t.lock;
    List.iter Domain.join ws
  end

let warned_bad_jobs = Atomic.make false

let default_jobs () =
  match Sys.getenv_opt "CHOP_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ ->
          let cores = Domain.recommended_domain_count () in
          if not (Atomic.exchange warned_bad_jobs true) then
            Printf.eprintf
              "chop: ignoring malformed CHOP_JOBS=%S (expected a positive \
               integer); using %d job(s)\n\
               %!"
              s cores;
          cores)
  | None -> Domain.recommended_domain_count ()

let run_inline tasks =
  let t0 = Unix.gettimeofday () in
  let results = Array.map (fun task -> task ()) tasks in
  let stats =
    {
      worker_busy = [| Unix.gettimeofday () -. t0 |];
      chunk_count = (if Array.length tasks = 0 then 0 else 1);
    }
  in
  (results, stats)

let collect results =
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error (exn, bt)) -> Printexc.raise_with_backtrace exn bt
      | None -> assert false (* the cursor visited every index *))
    results

let run_timed t tasks =
  if t.size > 1 && Atomic.get t.stopped then
    invalid_arg "Pool.run: pool is shut down";
  let n = Array.length tasks in
  let participants = t.helpers + 1 in
  if participants = 1 || n <= 1 then run_inline tasks
  else if not (Mutex.try_lock t.submit) then
    (* another thread (or an enclosing batch on this very pool) already
       owns the helpers; degrade to inline execution rather than block —
       correct either way, and deadlock-free for nested submissions *)
    run_inline tasks
  else
    Fun.protect ~finally:(fun () -> Mutex.unlock t.submit) @@ fun () ->
    let results = Array.make n None in
    let job i =
      let r =
        try Ok (tasks.(i) ())
        with exn -> Error (exn, Printexc.get_raw_backtrace ())
      in
      results.(i) <- Some r
    in
    let b =
      {
        job;
        n;
        chunk = max 1 (n / (8 * participants));
        cursor = Atomic.make 0;
        finished = Atomic.make 0;
        chunks_taken = Atomic.make 0;
        busy = Array.make participants 0.;
      }
    in
    let published = Some b in
    Mutex.lock t.lock;
    t.batch <- published;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.lock;
    participate b ~slot:0;
    Mutex.lock t.lock;
    while Atomic.get b.finished < b.n do
      Condition.wait t.work_done t.lock
    done;
    t.batch <- None;
    Mutex.unlock t.lock;
    ( collect results,
      { worker_busy = b.busy; chunk_count = Atomic.get b.chunks_taken } )

let run t tasks = fst (run_timed t tasks)
let map_list t f xs =
  Array.to_list (run t (Array.of_list (List.map (fun x () -> f x) xs)))
