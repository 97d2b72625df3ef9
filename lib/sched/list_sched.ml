(* The scheduler is the innermost loop of BAD prediction: one [schedule]
   per candidate allocation per module set per partition, thousands per
   exploration; what does not depend on the allocation is computed once
   per module set by [prepare].  All per-node state lives in dense arrays
   indexed by node id (builder ids are dense 0..size-1), and the loop in
   [schedule] allocates nothing: the ready set and the in-flight set are
   counted array segments, and the urgency ordering is an in-place stable
   insertion sort.

   The issue order is observable through [Schedule.t.starts], so every
   ordering decision replicates the original list-based semantics exactly:

   - the ready set behaves as a stack (newly ready operations are
     considered first among equals).  It is stored reversed — logical
     head at index [ready_n - 1] — so a logical prepend is an append;
   - ties in urgency preserve that logical order (stable sort);
   - retirements are processed newest-issued-first, matching the order a
     prepend-built in-flight list yields. *)

exception No_progress of { graph : string; ops : int; bound : int }

let () =
  Printexc.register_printer (function
    | No_progress { graph; ops; bound } ->
        Some
          (Printf.sprintf
             "List_sched.No_progress(graph %S, %d ops, %d iterations)" graph
             ops bound)
    | _ -> None)

(* Everything that depends on the graph and the latencies but not on the
   allocation: one [prepare] serves every allocation of a module set.
   Nothing in it is mutated by [schedule]. *)
type prepared = {
  graph : Chop_dfg.Graph.t;
  size : int;
  op_count : int;
  classes : string array; (* functional classes the graph uses *)
  lat : int array;
  cls_idx : int array; (* index into [classes]; -1 on boundary nodes *)
  pending : int array;
      (* computational predecessors per node; -1 on boundary nodes.
         [schedule] counts down a copy. *)
  urg : int array;
  succs : Chop_dfg.Graph.node_id list array;
  initial : int array; (* operations ready at step 0, in graph order *)
  bound : int; (* stall guard *)
}

let prepare ~latency g =
  let ops = Chop_dfg.Graph.operations g in
  List.iter
    (fun n ->
      if latency n < 1 then
        invalid_arg
          (Printf.sprintf "List_sched.run: latency of %s must be >= 1"
             n.Chop_dfg.Graph.name))
    ops;
  let n = Chop_dfg.Graph.size g in
  let op_count = List.length ops in
  let classes =
    Array.of_list (List.map fst (Chop_dfg.Graph.op_profile g))
  in
  let class_index cls =
    let rec go i = if String.equal classes.(i) cls then i else go (i + 1) in
    go 0
  in
  (* per-node state; [cls_idx]/[pending] stay -1 on boundary nodes *)
  let lat = Array.make (max 1 n) 0 in
  let cls_idx = Array.make (max 1 n) (-1) in
  let pending = Array.make (max 1 n) (-1) in
  let urg = Array.make (max 1 n) 0 in
  List.iter
    (fun nd ->
      let id = nd.Chop_dfg.Graph.id in
      lat.(id) <- latency nd;
      cls_idx.(id) <- class_index (Chop_dfg.Op.functional_class nd.Chop_dfg.Graph.op);
      pending.(id) <-
        List.fold_left
          (fun acc p ->
            if
              Chop_dfg.Op.is_computational
                (Chop_dfg.Graph.node g p).Chop_dfg.Graph.op
            then acc + 1
            else acc)
          0
          (Chop_dfg.Graph.preds g id))
    ops;
  (* urgency: longest latency chain to any sink, inclusive (Sehwa's
     measure); a sweep over reverse topological order *)
  List.iter
    (fun nd ->
      let id = nd.Chop_dfg.Graph.id in
      let downstream =
        List.fold_left
          (fun best s -> max best urg.(s))
          0
          (Chop_dfg.Graph.succs g id)
      in
      urg.(id) <- lat.(id) + downstream)
    (List.rev (Chop_dfg.Graph.nodes g));
  let initial =
    List.filter_map
      (fun nd ->
        let id = nd.Chop_dfg.Graph.id in
        if pending.(id) = 0 then Some id else None)
      ops
    |> Array.of_list
  in
  (* Each iteration either issues an operation or fast-forwards [step] to
     the next retirement, so a terminating run takes at most on the order
     of the fully serialized schedule length (op_count x max latency)
     iterations.  The guard is scaled to that bound — a fixed constant
     both under-protects huge graphs and fires spuriously on them — and
     raises a typed exception naming the (sub)graph, which carries the
     partition label for induced partition subgraphs. *)
  let max_lat = Array.fold_left max 1 lat in
  {
    graph = g;
    size = n;
    op_count;
    classes;
    lat;
    cls_idx;
    pending;
    urg;
    succs = Array.init (max 1 n) (Chop_dfg.Graph.succs g);
    initial;
    bound = 64 + (4 * op_count * max_lat);
  }

let schedule p ~alloc =
  Schedule.validate_alloc alloc;
  let free =
    Array.map
      (fun cls ->
        match List.assoc_opt cls alloc with
        | Some units -> units
        | None ->
            invalid_arg
              (Printf.sprintf "List_sched.run: no units allocated for %s" cls))
      p.classes
  in
  let { graph = g; size = n; op_count; lat; cls_idx; urg; succs; bound; _ } = p in
  let pending = Array.copy p.pending in
  (* ready stack, stored reversed: logical head = ready.(ready_n - 1) *)
  let ready = Array.make (max 1 n) 0 in
  let ready_n = ref (Array.length p.initial) in
  Array.blit p.initial 0 ready 0 !ready_n;
  let push_ready id =
    ready.(!ready_n) <- id;
    incr ready_n
  in
  let order = Array.make (max 1 n) 0 in
  (* operations in flight: finish step + id, newest at the highest index *)
  let fin_step = Array.make (max 1 op_count) 0 in
  let fin_id = Array.make (max 1 op_count) 0 in
  let fin_n = ref 0 in
  let start_id = Array.make (max 1 op_count) 0 in
  let start_at = Array.make (max 1 op_count) 0 in
  let start_n = ref 0 in
  let n_left = ref op_count in
  let step = ref 0 in
  let guard = ref 0 in
  while !n_left > 0 do
    incr guard;
    if !guard > bound then
      raise (No_progress { graph = Chop_dfg.Graph.name g; ops = op_count; bound });
    (* retire, newest-issued-first *)
    if !fin_n > 0 then begin
      for i = !fin_n - 1 downto 0 do
        if fin_step.(i) <= !step then begin
          let id = fin_id.(i) in
          free.(cls_idx.(id)) <- free.(cls_idx.(id)) + 1;
          List.iter
            (fun s ->
              if pending.(s) >= 0 then begin
                pending.(s) <- pending.(s) - 1;
                if pending.(s) = 0 then push_ready s
              end)
            succs.(id)
        end
      done;
      (* compact the survivors in place, preserving their order *)
      let w = ref 0 in
      for i = 0 to !fin_n - 1 do
        if fin_step.(i) > !step then begin
          fin_step.(!w) <- fin_step.(i);
          fin_id.(!w) <- fin_id.(i);
          incr w
        end
      done;
      fin_n := !w
    end;
    (* issue by decreasing urgency; ties keep the ready stack's order *)
    let cnt = !ready_n in
    for i = 0 to cnt - 1 do
      order.(i) <- ready.(cnt - 1 - i)
    done;
    for i = 1 to cnt - 1 do
      let v = order.(i) in
      let u = urg.(v) in
      let j = ref (i - 1) in
      while !j >= 0 && urg.(order.(!j)) < u do
        order.(!j + 1) <- order.(!j);
        decr j
      done;
      order.(!j + 1) <- v
    done;
    ready_n := 0;
    for i = 0 to cnt - 1 do
      let id = order.(i) in
      let c = cls_idx.(id) in
      if free.(c) > 0 then begin
        free.(c) <- free.(c) - 1;
        start_id.(!start_n) <- id;
        start_at.(!start_n) <- !step;
        incr start_n;
        fin_step.(!fin_n) <- !step + lat.(id);
        fin_id.(!fin_n) <- id;
        incr fin_n;
        decr n_left
      end
      else push_ready id
    done;
    incr step;
    (* fast-forward to the next retirement when nothing can issue *)
    if (!ready_n > 0 || !n_left > 0) && !fin_n > 0 then begin
      let next = ref max_int in
      for i = 0 to !fin_n - 1 do
        if fin_step.(i) < !next then next := fin_step.(i)
      done;
      if !next > !step then step := !next
    end
  done;
  let starts = List.init !start_n (fun i -> (start_id.(i), start_at.(i))) in
  let latencies = List.map (fun (id, _) -> (id, lat.(id))) starts in
  let length =
    List.fold_left (fun acc (id, st) -> max acc (st + lat.(id))) 0 starts
  in
  { Schedule.graph = g; alloc; starts; latencies; length }

let run ~latency ~alloc g = schedule (prepare ~latency g) ~alloc

let minimal_alloc g =
  Chop_dfg.Graph.op_profile g |> List.map (fun (cls, _) -> (cls, 1))

let maximal_useful_alloc ?latency g =
  let profile =
    match latency with
    | Some latency -> Chop_dfg.Analysis.max_width_profile ~latency g
    | None -> Chop_dfg.Analysis.max_width_profile g
  in
  profile
