(* One urgency schedule per distinct (latency, memory demand) vector of a
   combination search, thousands per exploration, always over the same
   tasks and resources.  What does not read a duration or a demand — the
   task and resource indexes, the dependency arrays, the checks on names,
   dependencies and cycles, the order urgencies are summed in — is built
   once by [prepare]; [schedule] works on int arrays indexed by task and
   resource.

   Every ordering decision is part of the contract, because the placed
   list and the waits are observable (test_sched holds them to a
   list-based reference scheduler):

   - each step partitions the remaining tasks into ready (every
     dependency finished by now) and blocked, both in remaining order;
   - the ready tasks are issued by decreasing urgency, ties in remaining
     order (stable sort), each against the units held at this step,
     including those just taken this step;
   - the next remaining order is the ready tasks that did not fit, in
     issue order, then the blocked ones;
   - the clock jumps to the next finish after now, or one step when
     nothing runs, so a task depending on a zero-duration one starts one
     event later, not at once. *)

type resource = { rname : string; capacity : int }

type task = {
  tname : string;
  duration : int;
  demands : (string * int) list;
  deps : string list;
}

type placed = { task : task; ready : int; start_step : int; finish_step : int }
type result = { placed : placed list; makespan : int }

exception Unschedulable of string

let fail fmt = Printf.ksprintf (fun s -> raise (Unschedulable s)) fmt

(* Structural errors are kept, not raised: [check] raises them in the
   order of one validation pass over the task list — a duplicate name
   first, then task by task its duration, its demands and its unknown
   dependency, and a cycle last. *)
type prepared = {
  tasks : task array;
  res_names : string array;
  capacities : int array;
  pre : int array array;  (* dependency indexes, in [deps] order *)
  post : int array array;  (* dependent indexes *)
  order : int array;  (* every task after all of its dependents *)
  duplicate : exn option;
  dep_error : (int * exn) option;  (* the first unknown dependency *)
  cycle : exn option;
}

let has_duplicate names =
  List.length (List.sort_uniq String.compare names) <> List.length names

let prepare ~resources tasks =
  let duplicate =
    if has_duplicate (List.map (fun t -> t.tname) tasks) then
      Some (Invalid_argument "Urgency.run: duplicate task name")
    else if has_duplicate (List.map (fun r -> r.rname) resources) then
      Some (Invalid_argument "Urgency.run: duplicate resource name")
    else None
  in
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  let res = Array.of_list resources in
  let task_index = Hashtbl.create 16 in
  Array.iteri (fun i t -> Hashtbl.replace task_index t.tname i) tasks;
  let rec dep_error i =
    if i = n then None
    else
      let t = tasks.(i) in
      match List.find_opt (fun d -> not (Hashtbl.mem task_index d)) t.deps with
      | Some d ->
          Some
            ( i,
              Unschedulable
                (Printf.sprintf "task %s depends on unknown task %s" t.tname d)
            )
      | None -> dep_error (i + 1)
  in
  let pre =
    Array.map
      (fun (t : task) ->
        Array.of_list
          (List.filter_map (Hashtbl.find_opt task_index) t.deps))
      tasks
  in
  (* dependents are prepended in task order: the cycle search below visits
     them in that order, which decides the task a cycle is reported at *)
  let post_rev = Array.make n [] in
  Array.iteri
    (fun i d -> Array.iter (fun j -> post_rev.(j) <- i :: post_rev.(j)) d)
    pre;
  let post = Array.map Array.of_list post_rev in
  (* depth first from each task in list order; the finishing order sums
     urgencies dependents first *)
  let state = Array.make n 0 (* 0 unseen, 1 on the stack, 2 done *) in
  let finished = ref [] in
  let rec visit i =
    match state.(i) with
    | 2 -> ()
    | 1 -> fail "cyclic task dependencies at %s" tasks.(i).tname
    | _ ->
        state.(i) <- 1;
        Array.iter visit post.(i);
        state.(i) <- 2;
        finished := i :: !finished
  in
  let cycle =
    match Array.iteri (fun i _ -> visit i) tasks with
    | () -> None
    | exception (Unschedulable _ as e) -> Some e
  in
  {
    tasks;
    res_names = Array.map (fun r -> r.rname) res;
    capacities = Array.map (fun r -> r.capacity) res;
    pre;
    post;
    order = Array.of_list (List.rev !finished);
    duplicate;
    dep_error = dep_error 0;
    cycle;
  }

(* The checks on one call's durations and demands, interleaved with the
   kept structural errors.  [resource i r] resolves a demand of task [i]
   to a resource index, or raises. *)
let check p ~durations ~demands ~resource =
  Option.iter raise p.duplicate;
  Array.iteri
    (fun i t ->
      if durations.(i) < 0 then invalid_arg "Urgency.run: negative duration";
      List.iter
        (fun (r, units) ->
          if units < 0 then invalid_arg "Urgency.run: negative demand";
          let j = resource i r in
          if units > p.capacities.(j) then
            fail "task %s demands %d of %s (capacity %d)" t.tname units
              p.res_names.(j) p.capacities.(j))
        demands.(i);
      match p.dep_error with Some (j, e) when j = i -> raise e | _ -> ())
    p.tasks;
  Option.iter raise p.cycle

(* The schedule of checked durations and index demands; [task i] is the
   record task [i] is placed with.  Returns the result and each task's
   wait. *)
let place p ~durations ~(demands : (int * int) list array) ~task =
  let n = Array.length p.tasks in
  (* urgency: longest chain of durations from the task to any sink,
     inclusive — tasks holding up long futures go first *)
  let urg = Array.make n 0 in
  Array.iter
    (fun i ->
      urg.(i) <-
        durations.(i)
        + Array.fold_left (fun acc s -> max acc urg.(s)) 0 p.post.(i))
    p.order;
  let finish = Array.make n (-1) (* -1 until placed *) in
  let waits = Array.make n 0 in
  let in_use = Array.make (Array.length p.capacities) 0 in
  let remaining = Array.init n Fun.id in
  let remaining_n = ref n in
  let ready = Array.make n 0 in
  let waiting = Array.make n 0 in
  let placed_rev = ref [] in
  let step = ref 0 in
  let guard = ref 0 in
  while !remaining_n > 0 do
    incr guard;
    if !guard > 2_000_000 then fail "no progress (internal)";
    let now = !step in
    (* ready first, blocked compacted to the front of [remaining] *)
    let ready_n = ref 0 and blocked_n = ref 0 in
    for k = 0 to !remaining_n - 1 do
      let t = remaining.(k) in
      if Array.for_all (fun d -> finish.(d) >= 0 && finish.(d) <= now) p.pre.(t)
      then begin
        ready.(!ready_n) <- t;
        incr ready_n
      end
      else begin
        remaining.(!blocked_n) <- t;
        incr blocked_n
      end
    done;
    for k = 1 to !ready_n - 1 do
      let t = ready.(k) in
      let u = urg.(t) in
      let j = ref (k - 1) in
      while !j >= 0 && urg.(ready.(!j)) < u do
        ready.(!j + 1) <- ready.(!j);
        decr j
      done;
      ready.(!j + 1) <- t
    done;
    let waiting_n = ref 0 in
    for k = 0 to !ready_n - 1 do
      let t = ready.(k) in
      if
        List.for_all
          (fun (r, units) -> in_use.(r) + units <= p.capacities.(r))
          demands.(t)
      then begin
        (* a zero-duration task holds nothing past this step *)
        if durations.(t) > 0 then
          List.iter
            (fun (r, units) -> in_use.(r) <- in_use.(r) + units)
            demands.(t);
        let ready_step =
          Array.fold_left (fun acc d -> max acc finish.(d)) 0 p.pre.(t)
        in
        waits.(t) <- now - ready_step;
        finish.(t) <- now + durations.(t);
        placed_rev :=
          { task = task t; ready = ready_step; start_step = now;
            finish_step = finish.(t) }
          :: !placed_rev
      end
      else begin
        waiting.(!waiting_n) <- t;
        incr waiting_n
      end
    done;
    Array.blit remaining 0 remaining !waiting_n !blocked_n;
    Array.blit waiting 0 remaining 0 !waiting_n;
    remaining_n := !waiting_n + !blocked_n;
    if !remaining_n > 0 then begin
      (* advance to the next event: a placed task finishing after now *)
      let next = ref max_int in
      Array.iter (fun f -> if f > now && f < !next then next := f) finish;
      step := if !next = max_int then now + 1 else !next;
      (* release what finished in (now, step] *)
      Array.iteri
        (fun t f ->
          if f > now && f <= !step then
            List.iter
              (fun (r, units) -> in_use.(r) <- in_use.(r) - units)
              demands.(t))
        finish
    end
  done;
  ({ placed = List.rev !placed_rev; makespan = Array.fold_left max 0 finish },
   waits)

let resource_index p name =
  let rec find j =
    if j = Array.length p.res_names then raise Not_found
    else if String.equal p.res_names.(j) name then j
    else find (j + 1)
  in
  find 0

let run ~resources tasks =
  let p = prepare ~resources tasks in
  let durations = Array.map (fun t -> t.duration) p.tasks in
  let named = Array.map (fun t -> t.demands) p.tasks in
  check p ~durations ~demands:named ~resource:(fun i name ->
      match resource_index p name with
      | j -> j
      | exception Not_found ->
          fail "task %s demands unknown resource %s" p.tasks.(i).tname name);
  let demands =
    Array.map
      (List.map (fun (name, units) -> (resource_index p name, units)))
      named
  in
  fst (place p ~durations ~demands ~task:(Array.get p.tasks))

let schedule p ~durations ~demands =
  let n = Array.length p.tasks in
  if Array.length durations <> n || Array.length demands <> n then
    invalid_arg "Urgency.schedule: one duration and one demand list per task";
  check p ~durations ~demands ~resource:(fun _ j ->
      if j < 0 || j >= Array.length p.capacities then
        invalid_arg "Urgency.schedule: resource index out of range";
      j);
  let rec same_demands named indexed =
    match (named, indexed) with
    | [], [] -> true
    | (name, u) :: named, (j, v) :: indexed ->
        u = v && String.equal name p.res_names.(j) && same_demands named indexed
    | _ -> false
  in
  (* a task placed as prepared keeps its record: results share it *)
  place p ~durations ~demands ~task:(fun i ->
      let t = p.tasks.(i) in
      if durations.(i) = t.duration && same_demands t.demands demands.(i) then t
      else
        {
          t with
          duration = durations.(i);
          demands =
            List.map (fun (j, units) -> (p.res_names.(j), units)) demands.(i);
        })

let wait_of result name =
  let p = List.find (fun p -> p.task.tname = name) result.placed in
  p.start_step - p.ready

let critical_path result =
  (* walk back from a task realizing the makespan through the dependency or
     resource wait that pinned its start *)
  let by_name = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace by_name p.task.tname p) result.placed;
  let rec back p acc =
    let acc = p.task.tname :: acc in
    let pinning =
      List.filter_map
        (fun d ->
          let dp = Hashtbl.find by_name d in
          if dp.finish_step = p.ready && p.ready > 0 then Some dp else None)
        p.task.deps
    in
    match pinning with
    | dp :: _ -> back dp acc
    | [] -> acc
  in
  match
    List.find_opt (fun p -> p.finish_step = result.makespan) result.placed
  with
  | None -> []
  | Some last -> back last []
