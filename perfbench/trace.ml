(* Spans recorded by the benchmark around its own calls into each layer.

   Each client owns one [buf], so recording takes no lock; the buffers
   are merged after the timed phase.  A span has a name, a start, an end,
   its parent span and the id of the op it belongs to.  Only intervals the
   benchmark times itself become spans: durations a layer reports (a
   server's queue and run time, an engine's phases) stay numbers in the
   op's record. *)

type span = {
  id : int;
  parent : int;  (** [-1] for an op's root span *)
  op : int;
  tid : int;
  name : string;
  start_ns : int64;
  stop_ns : int64;
}

type buf = {
  enabled : bool;
  tid : int;
  mutable next : int;
  mutable spans : span list;  (** newest first *)
}

let buffer ~enabled ~tid = { enabled; tid; next = 0; spans = [] }

(* A fresh span id, or [-1] when tracing is off.  An op's root span
   takes its id before its children are recorded, so they can name it as
   their parent. *)
let reserve b =
  if not b.enabled then -1
  else begin
    let id = (b.tid lsl 32) lor b.next in
    b.next <- b.next + 1;
    id
  end

let record b ~id ~op ~parent name start_ns stop_ns =
  if b.enabled then
    b.spans <- { id; parent; op; tid = b.tid; name; start_ns; stop_ns } :: b.spans

(* Records a span and returns its id, or [-1] when tracing is off. *)
let add b ~op ~parent name start_ns stop_ns =
  let id = reserve b in
  record b ~id ~op ~parent name start_ns stop_ns;
  id

(* Runs [f root] as one op's turn and records the root span "op" around
   it; [f] records the op's children under [root]. *)
let op_span b ~op f =
  let root = reserve b in
  let t0 = Clock.now_ns () in
  let x = f root in
  record b ~id:root ~op ~parent:(-1) "op" t0 (Clock.now_ns ());
  x

let spans bufs =
  List.concat_map (fun b -> List.rev b.spans) bufs

let duration_ns s = Clock.ns_between s.start_ns s.stop_ns

(* Time inside [s] that none of [children] covers: the span's duration
   minus the union of its children's intervals clipped to it.  Never
   negative, even when children overlap or spill over the parent. *)
let self_ns s children =
  let clipped =
    List.filter_map
      (fun c ->
        let a = max c.start_ns s.start_ns and z = min c.stop_ns s.stop_ns in
        if z > a then Some (a, z) else None)
      children
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, z) ->
        let a = max a reach in
        if z > a then (acc +. Clock.ns_between a z, z) else (acc, reach))
      (0., s.start_ns) clipped
  in
  Float.max 0. (duration_ns s -. covered)

let children_of all =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add tbl s.parent s)
    all;
  fun s -> Hashtbl.find_all tbl s.id

(* Mean per op of the total duration of spans named [name]; [ops] is the
   number of ops the mean is over (ops with no such span count as 0). *)
let mean_ms all ~ops name =
  let total =
    List.fold_left
      (fun acc s -> if s.name = name then acc +. duration_ns s else acc)
      0. all
  in
  if ops = 0 then 0. else total /. 1e6 /. float_of_int ops

let mean_self_ms all ~ops name =
  let kids = children_of all in
  let total =
    List.fold_left
      (fun acc s -> if s.name = name then acc +. self_ns s (kids s) else acc)
      0. all
  in
  if ops = 0 then 0. else total /. 1e6 /. float_of_int ops

(* Chrome trace-event JSON ("X" complete events, microseconds), which
   Perfetto and chrome://tracing open offline. *)
let write_chrome path all =
  let t0 =
    List.fold_left (fun m s -> if s.start_ns < m then s.start_ns else m)
      Int64.max_int all
  in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "\n{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\
         \"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"id\":%d,\"parent\":%d}}"
        s.name
        (match String.index_opt s.name '.' with
        | Some i -> String.sub s.name 0 i
        | None -> s.name)
        s.tid
        (Clock.ns_between t0 s.start_ns /. 1e3)
        (duration_ns s /. 1e3) s.op s.id s.parent)
    all;
  output_string oc "\n]}\n";
  close_out oc
