(* The single source of the CLI's benchmark table, spec assembly and
   rendering — [bin/chop_cli] and [Server] both call through here, which
   is what makes a serve response byte-identical to the CLI's output. *)

let benchmarks =
  [
    ("ar", fun () -> Chop_dfg.Benchmarks.ar_lattice_filter ());
    ("ewf", fun () -> Chop_dfg.Benchmarks.elliptic_wave_filter ());
    ("fir16", fun () -> Chop_dfg.Benchmarks.fir_filter ~taps:16 ());
    ("fir8", fun () -> Chop_dfg.Benchmarks.fir_filter ~taps:8 ());
    ("diffeq", fun () -> Chop_dfg.Benchmarks.diffeq ());
    ("dct8", fun () -> Chop_dfg.Benchmarks.dct8 ());
    (* the HW/SW co-design reference workload: a multiplier-heavy PCM
       reconstruction filter feeding a cheap-op-heavy PWM modulation stage.
       Specs built on it automatically declare the [reference_cpu]
       processor below, so partitions can be rebound to software. *)
    ("pcm_pwm", fun () -> Chop_dfg.Benchmarks.pcm_pwm ());
    (* ewf rebuilt in a shuffled construction order: isomorphic to "ewf"
       but with different node ids, so its subgraph signatures differ and
       it shares no prediction-cache entry with "ewf".  The probe for
       cache transparency — a session on "ewf2" after one on "ewf" must
       answer as a cache-off run of "ewf2" does. *)
    ("ewf2",
     fun () -> Chop_dfg.Transform.renumber (Chop_dfg.Benchmarks.elliptic_wave_filter ()));
  ]

let graph_of_name name =
  match List.assoc_opt name benchmarks with
  | Some f -> Ok (f ())
  | None ->
      Error
        (Printf.sprintf "unknown benchmark %S (try: %s)" name
           (String.concat ", " (List.map fst benchmarks)))

let package_of_pins = function
  | 64 -> Ok Chop_tech.Mosis.package_64
  | 84 -> Ok Chop_tech.Mosis.package_84
  | n -> Error (Printf.sprintf "package must be 64 or 84, not %d" n)

let heuristic_of_string = function
  | "e" | "E" | "enum" -> Ok Chop.Explore.Enumeration
  | "i" | "I" | "iter" -> Ok Chop.Explore.Iterative
  | "b" | "B" | "bb" -> Ok Chop.Explore.Branch_bound
  | s ->
      Error
        (Printf.sprintf
           "heuristic must be 'e' (enumeration), 'i' (iterative) or 'b' \
            (branch-and-bound), not %S"
           s)

let strategy_of_string = function
  | "levels" -> Ok Chop_baseline.Autopart.Levels
  | "min-cut" -> Ok (Chop_baseline.Autopart.Min_cut 1)
  | "random" -> Ok (Chop_baseline.Autopart.Random_balanced 42)
  | s -> Error (Printf.sprintf "strategy must be levels, min-cut or random, not %S" s)

(* The reference embedded processor for HW/SW co-design runs: a 4-issue
   core with a memory budget sized so only the cheap-op pcm_pwm stage
   fits in software at a useful issue width — the feasibility triangle
   the case study turns on: all-hardware is clock-bound, all-software is
   memory-starved into narrow issue, and the hw/sw split beats both. *)
let reference_cpu =
  Chop_model_sw.Processor.make ~name:"cpu" ~issue_slots:4 ~cycle_ns:300.
    ~code_bytes_per_op:4 ~data_bytes_per_value:2 ~memory_budget_bytes:176.
    ~bus_bits:16

(* Declare the reference processor whenever software is in play: on the
   co-design benchmark (so sessions can rebind partitions later) or when
   the caller binds a partition explicitly. *)
let processors_for ~benchmark ~impls =
  if String.equal benchmark "pcm_pwm" || impls <> [] then [ reference_cpu ]
  else []

let build_spec ?(processors = []) ?(impls = []) ~graph ~partitions ~package
    ~perf ~delay ~multicycle ~strategy () =
  let partitioning =
    if partitions = 1 then Chop_dfg.Partition.whole graph
    else Chop_baseline.Autopart.generate graph ~k:partitions strategy
  in
  let clocks =
    if multicycle then
      Chop_tech.Clocking.make ~main:Chop_tech.Mosis.main_clock ~datapath_ratio:1
        ~transfer_ratio:1
    else
      Chop_tech.Clocking.make ~main:Chop_tech.Mosis.main_clock ~datapath_ratio:10
        ~transfer_ratio:1
  in
  let style =
    Chop_tech.Style.both
      (if multicycle then Chop_tech.Style.Multi_cycle
       else Chop_tech.Style.Single_cycle)
  in
  Chop.Rig.custom ~processors ~impls ~graph ~partitioning ~package ~clocks
    ~style ~criteria:(Chop_bad.Feasibility.criteria ~perf ~delay ()) ()

let ( let* ) r f = Result.bind r f

let spec_of_params (p : Protocol.params) =
  let* graph = graph_of_name p.Protocol.benchmark in
  let* package = package_of_pins p.Protocol.package in
  let* strategy = strategy_of_string p.Protocol.strategy in
  if p.Protocol.partitions < 1 then
    Error
      (Printf.sprintf "partitions must be >= 1, not %d" p.Protocol.partitions)
  else
    match
      build_spec
        ~processors:(processors_for ~benchmark:p.Protocol.benchmark ~impls:[])
        ~graph ~partitions:p.Protocol.partitions ~package ~perf:p.Protocol.perf
        ~delay:p.Protocol.delay ~multicycle:p.Protocol.multicycle ~strategy ()
    with
    | spec -> Ok spec
    | exception Chop.Spec.Invalid_spec reason -> Error reason
    | exception Invalid_argument reason -> Error reason

let config_of_params ~jobs (p : Protocol.params) =
  let* heuristic = heuristic_of_string p.Protocol.heuristic in
  Ok
    (Chop.Explore.Config.make ~heuristic
       ~keep_all:(p.Protocol.csv || p.Protocol.keep_all)
       ~pre_prune:(not p.Protocol.no_prune) ~jobs ())

let engine_key ~op (p : Protocol.params) =
  (* predict runs a default-config engine (the CLI parity point), so it
     keys separately from the explore family; explore/advise share (and
     explore/slice runs the same engine as the explore it slices). *)
  let family =
    match op with
    | Protocol.Predict -> "predict"
    | Protocol.Explore | Protocol.Explore_slice | Protocol.Advise
    | Protocol.Sensitivity | Protocol.Stats | Protocol.Ping
    | Protocol.Session_open | Protocol.Session_edit | Protocol.Session_undo
    | Protocol.Session_redo | Protocol.Session_run
    | Protocol.Session_optimize | Protocol.Session_attach
    | Protocol.Session_detach | Protocol.Session_list
    | Protocol.Session_save | Protocol.Session_close
    | Protocol.Gateway_migrate ->
        "explore"
  in
  Printf.sprintf "%s|%s|k=%d|p=%d|perf=%g|delay=%g|mc=%b|h=%s|s=%s|ka=%b|np=%b"
    family p.Protocol.benchmark p.Protocol.partitions p.Protocol.package
    p.Protocol.perf p.Protocol.delay p.Protocol.multicycle
    (match family with "predict" -> "-" | _ -> p.Protocol.heuristic)
    p.Protocol.strategy
    (p.Protocol.keep_all || p.Protocol.csv)
    p.Protocol.no_prune

let explore_feasible_count (report : Chop.Explore.report) =
  List.length report.Chop.Explore.outcome.Chop.Search.feasible

(* The deterministic explore block over design-point rows — the single
   renderer behind the CLI, the server and the gateway's distributed
   merge, which is what makes all three byte-identical.  [verbose_tail]
   carries the report-guideline section when the caller has full systems
   in hand (the gateway never does: fan-out is restricted to non-verbose
   requests). *)
let render_explore_rows ~keep_all ~csv ~bad ~trials ~verbose_tail
    ~(feasible : Chop.Search.Row.t list) ~(explored : Chop.Search.Row.t list)
    () =
  if keep_all then
    (* deterministic dump: no timings, so jobs=1 and jobs=N (and the CLI,
       the server and the gateway) are byte-identical *)
    String.concat ""
      [
        "# feasible\n";
        Chop.Search.Row.to_csv feasible;
        "# explored\n";
        Chop.Search.Row.to_csv explored;
      ]
  else if csv then Chop.Search.Row.to_csv explored
  else begin
    let buf = Buffer.create 512 in
    List.iter
      (fun b ->
        Printf.bprintf buf "BAD %s: %d predictions, %d feasible, %d kept\n"
          b.Chop.Explore.label b.Chop.Explore.total_predictions
          b.Chop.Explore.feasible_predictions b.Chop.Explore.kept)
      bad;
    Printf.bprintf buf "search: %d trials\n\n" trials;
    (match feasible with
    | [] -> Buffer.add_string buf "no feasible implementation\n"
    | feas ->
        Printf.bprintf buf "%d feasible non-inferior implementation(s):\n"
          (List.length feas);
        List.iter
          (fun (r : Chop.Search.Row.t) ->
            Printf.bprintf buf
              "  II %d cycles, delay %d cycles, clock %.0f ns (perf %.0f ns)\n"
              r.Chop.Search.Row.ii_main r.Chop.Search.Row.delay_cycles
              r.Chop.Search.Row.clock r.Chop.Search.Row.perf_ns)
          feas;
        Option.iter
          (fun tail ->
            Buffer.add_char buf '\n';
            Buffer.add_string buf tail)
          verbose_tail);
    Buffer.contents buf
  end

let render_explore spec ~keep_all ~csv ~verbose (report : Chop.Explore.report) =
  let outcome = report.Chop.Explore.outcome in
  let verbose_tail =
    match outcome.Chop.Search.feasible with
    | best :: _ when verbose -> Some (Chop.Report.guideline spec best)
    | _ -> None
  in
  render_explore_rows ~keep_all ~csv ~bad:report.Chop.Explore.bad
    ~trials:outcome.Chop.Search.stats.Chop.Search.implementation_trials
    ~verbose_tail
    ~feasible:(List.map Chop.Search.Row.of_system outcome.Chop.Search.feasible)
    ~explored:(List.map Chop.Search.Row.of_system outcome.Chop.Search.explored)
    ()

let render_explore_timing (report : Chop.Explore.report) =
  let st = report.Chop.Explore.outcome.Chop.Search.stats in
  let m = report.Chop.Explore.metrics in
  let predict = m.Chop.Explore.Metrics.predict in
  Printf.sprintf
    "BAD: %.3f s wall (%.3f s busy across %d job(s)), cache %d hit(s) / %d \
     miss(es)\n\
     search: %.3f s CPU\n"
    predict.Chop.Explore.Metrics.wall_seconds
    predict.Chop.Explore.Metrics.busy_seconds report.Chop.Explore.jobs
    m.Chop.Explore.Metrics.cache_hits m.Chop.Explore.Metrics.cache_misses
    st.Chop.Search.cpu_seconds

(* Partitions bound to a software model get a tag; hardware partitions
   render exactly as before, so all-hardware output stays byte-identical. *)
let model_tag spec label =
  match Chop.Spec.impl_of_partition spec label with
  | "hw" -> ""
  | m -> Printf.sprintf " [model %s]" m

let render_predict spec ~index ~top per_partition stats =
  let buf = Buffer.create 512 in
  List.iteri
    (fun i (label, preds) ->
      if i = index || index < 0 then begin
        let st = List.nth stats i in
        Printf.bprintf buf
          "partition %s%s: %d predictions (%d feasible, %d kept)\n" label
          (model_tag spec label) st.Chop.Explore.total_predictions
          st.Chop.Explore.feasible_predictions st.Chop.Explore.kept;
        List.iter
          (fun p ->
            Buffer.add_string buf
              (Chop_bad.Prediction.describe spec.Chop.Spec.clocks p);
            Buffer.add_char buf '\n')
          (Chop_util.Listx.take top preds);
        Buffer.add_char buf '\n'
      end)
    per_partition;
  Buffer.contents buf

let render_advice (j : Chop.Advisor.judgement) = j.Chop.Advisor.advice ^ "\n"

(* ------------------------------------------------------------------ *)
(* The interactive edit-command language, shared by [chop repl] and the
   server's session/edit op so transcripts and responses agree. *)

let edit_commands =
  "move <op> <partition> | merge <src> <dst> | split <from> <new> \
   <op[,op...]> | assign <partition> <chip> | package <chip> <64|84> | \
   rehost <block> <chip> | clocks <main_ns> <datapath_ratio> \
   <transfer_ratio> | criteria <perf_ns> <delay_ns> | impl <partition> \
   <hw|processor>"

let tokens line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

(* an operation operand is a node id or a node name *)
let resolve_operand spec tok =
  let g = spec.Chop.Spec.graph in
  match int_of_string_opt tok with
  | Some id ->
      if Chop_dfg.Graph.mem g id then Ok id
      else Error (Printf.sprintf "unknown operation %d" id)
  | None -> (
      match
        List.find_opt
          (fun n -> n.Chop_dfg.Graph.name = tok)
          (Chop_dfg.Graph.nodes g)
      with
      | Some n -> Ok n.Chop_dfg.Graph.id
      | None -> Error (Printf.sprintf "unknown operation %S" tok))

let number name tok =
  match float_of_string_opt tok with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%s must be a number, not %S" name tok)

let integer name tok =
  match int_of_string_opt tok with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "%s must be an integer, not %S" name tok)

let parse_edit spec line =
  match tokens line with
  | [ "move"; op; part ] ->
      let* op = resolve_operand spec op in
      Ok (Chop.Spec.Move_op { op; to_partition = part })
  | [ "merge"; src; dst ] -> Ok (Chop.Spec.Merge_parts { src; dst })
  | [ "split"; from_partition; new_label; members ] ->
      let toks =
        String.split_on_char ',' members |> List.filter (fun t -> t <> "")
      in
      if toks = [] then Error "split: empty operation list"
      else
        let rec conv acc = function
          | [] -> Ok (List.rev acc)
          | t :: tl -> (
              match resolve_operand spec t with
              | Ok id -> conv (id :: acc) tl
              | Error _ as e -> e)
        in
        let* members = conv [] toks in
        Ok (Chop.Spec.Split_part { from_partition; members; new_label })
  | [ "assign"; partition; chip ] ->
      Ok (Chop.Spec.Reassign_chip { partition; chip })
  | [ "package"; chip; pins ] ->
      let* pins = integer "package" pins in
      let* package = package_of_pins pins in
      Ok (Chop.Spec.Swap_package { chip; package })
  | [ "rehost"; block; chip ] -> Ok (Chop.Spec.Rehost_memory { block; chip })
  | [ "clocks"; main; dr; tr ] -> (
      let* main = number "main clock" main in
      let* dr = integer "datapath ratio" dr in
      let* tr = integer "transfer ratio" tr in
      match Chop_tech.Clocking.make ~main ~datapath_ratio:dr ~transfer_ratio:tr with
      | clocks -> Ok (Chop.Spec.Set_clocks clocks)
      | exception Invalid_argument reason -> Error reason)
  | [ "criteria"; perf; delay ] ->
      let* perf = number "perf" perf in
      let* delay = number "delay" delay in
      Ok (Chop.Spec.Set_criteria (Chop_bad.Feasibility.criteria ~perf ~delay ()))
  | [ "impl"; partition; model ] ->
      (* reject unknown model names here, with the declared alternatives,
         rather than letting Spec.update fail later with less context *)
      let known =
        "hw"
        :: List.map
             (fun p -> p.Chop_model_sw.Processor.pname)
             spec.Chop.Spec.processors
      in
      if List.mem model known then
        Ok (Chop.Spec.Set_impl { partition; impl = model })
      else
        Error
          (Printf.sprintf "impl: unknown model %S (declared: %s)" model
             (String.concat ", " known))
  | [] -> Error "empty edit command"
  | cmd :: _ ->
      Error (Printf.sprintf "unknown edit command %S (syntax: %s)" cmd edit_commands)

let parse_edits spec lines =
  (* only graph-node operands resolve at parse time (the graph never
     changes); partition/chip names stay symbolic and are validated by
     [Spec.update] against the spec each edit actually applies to *)
  let rec go acc i = function
    | [] -> Ok (List.rev acc)
    | line :: tl -> (
        match parse_edit spec line with
        | Ok e -> go (e :: acc) (i + 1) tl
        | Error reason -> Error (Printf.sprintf "edit %d: %s" i reason))
  in
  go [] 0 lines

let render_dirty (d : Chop.Spec.dirty) =
  let clause verb = function
    | [] -> None
    | ls -> Some (verb ^ " " ^ String.concat " " ls)
  in
  let clauses =
    List.filter_map Fun.id
      [
        clause "re-predict" d.Chop.Spec.repredict;
        clause "re-screen" d.Chop.Spec.rederive;
        clause "removed" d.Chop.Spec.removed;
      ]
  in
  (match clauses with
  | [] -> "ok: nothing to re-predict"
  | cs -> "ok: " ^ String.concat "; " cs)
  ^ "\n"

let render_parts spec =
  let buf = Buffer.create 128 in
  List.iter
    (fun p ->
      let label = p.Chop_dfg.Partition.label in
      Printf.bprintf buf "%s: %d operation(s) on %s%s\n" label
        (List.length p.Chop_dfg.Partition.members)
        (Chop.Spec.chip_of_partition spec label).Chop.Spec.chip_name
        (model_tag spec label))
    spec.Chop.Spec.partitioning.Chop_dfg.Partition.parts;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* chop auto / session/optimize: constraint parsing and rendering,
   shared so the CLI and the server answer byte-identically. *)

(* [--impl PART=MODEL] bindings from the CLI; validation of the partition
   label and model name is left to [Spec.make], which has both in hand. *)
let parse_impl_bindings strs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | s :: tl -> (
        match String.index_opt s '=' with
        | None -> Error (Printf.sprintf "impl %S: expected partition=model" s)
        | Some i ->
            let part = String.trim (String.sub s 0 i) in
            let model =
              String.trim (String.sub s (i + 1) (String.length s - i - 1))
            in
            if part = "" || model = "" then
              Error (Printf.sprintf "impl %S: expected partition=model" s)
            else go ((part, model) :: acc) tl)
  in
  go [] strs

let parse_constraints spec ~pins ~together =
  let rec conv_pins acc = function
    | [] -> Ok (List.rev acc)
    | s :: tl -> (
        match String.index_opt s '=' with
        | None -> Error (Printf.sprintf "pin %S: expected op=partition" s)
        | Some i ->
            let op = String.trim (String.sub s 0 i) in
            let part =
              String.trim (String.sub s (i + 1) (String.length s - i - 1))
            in
            if part = "" then
              Error (Printf.sprintf "pin %S: empty partition label" s)
            else
              let* op = resolve_operand spec op in
              conv_pins ((op, part) :: acc) tl)
  in
  let rec conv_comms acc = function
    | [] -> Ok (List.rev acc)
    | s :: tl ->
        let toks =
          String.split_on_char ',' s |> List.map String.trim
          |> List.filter (fun t -> t <> "")
        in
        if List.length toks < 2 then
          Error (Printf.sprintf "together %S: need at least two operations" s)
        else
          let rec ops acc2 = function
            | [] -> Ok (List.rev acc2)
            | t :: r -> (
                match resolve_operand spec t with
                | Ok id -> ops (id :: acc2) r
                | Error e -> Error (Printf.sprintf "together %S: %s" s e))
          in
          let* members = ops [] toks in
          conv_comms (members :: acc) tl
  in
  let* pins = conv_pins [] pins in
  let* communities = conv_comms [] together in
  Ok { Chop_auto.pins; communities }

let constraints_of_params spec (p : Protocol.params) =
  parse_constraints spec ~pins:p.Protocol.pins ~together:p.Protocol.together

let report_summary_line (r : Chop.Explore.report) =
  match r.Chop.Explore.outcome.Chop.Search.feasible with
  | [] -> "no feasible implementation"
  | best :: _ as feas ->
      Printf.sprintf
        "%d feasible, best II %d cycles, perf %.0f ns, area %.0f mil^2"
        (List.length feas) best.Chop.Integration.ii_main
        best.Chop.Integration.perf_ns
        (Chop.Integration.objectives best).(2)

let render_auto spec (o : Chop_auto.outcome) =
  let buf = Buffer.create 512 in
  Printf.bprintf buf
    "auto: %d level(s) from %d cluster(s), %d move(s) tried, %d accepted%s, \
     %d speculative run(s) over %d round(s)%s\n"
    o.Chop_auto.levels o.Chop_auto.coarse_clusters o.Chop_auto.moves_tried
    o.Chop_auto.moves_accepted
    (* the flip clause appears only when software models are in play, so
       hardware-only output is byte-identical to the pre-model renderer *)
    (if spec.Chop.Spec.processors <> [] then
       Printf.sprintf ", %d model flip(s)" o.Chop_auto.impl_flips
     else "")
    o.Chop_auto.speculative_runs o.Chop_auto.batch_rounds
    (if o.Chop_auto.interrupted then " (stopped at budget)" else "");
  Printf.bprintf buf "seed: %s\n" (report_summary_line o.Chop_auto.seed_report);
  Printf.bprintf buf "auto vs seed: %s\n\n"
    (if o.Chop_auto.moves_accepted > 0 then "improved" else "unchanged");
  Buffer.add_string buf (render_parts spec);
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (render_explore spec ~keep_all:false ~csv:false ~verbose:false
       o.Chop_auto.report);
  Buffer.contents buf

let render_auto_timing (o : Chop_auto.outcome) =
  let total = o.Chop_auto.cache_hits + o.Chop_auto.cache_misses in
  Printf.sprintf
    "auto: %.3f s wall (%d job(s), speculative %.3f s busy / %.3f s wall), \
     refinement cache %d hit(s) / %d miss(es)%s\n"
    o.Chop_auto.wall_seconds o.Chop_auto.jobs o.Chop_auto.spec_busy_seconds
    o.Chop_auto.spec_wall_seconds o.Chop_auto.cache_hits
    o.Chop_auto.cache_misses
    (if total = 0 then ""
     else
       Printf.sprintf " (%.1f%% hits)"
         (100. *. float_of_int o.Chop_auto.cache_hits /. float_of_int total))

let render_auto_stats (o : Chop_auto.outcome) =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "auto stats:\n";
  Printf.bprintf buf "  jobs                 %d\n" o.Chop_auto.jobs;
  Printf.bprintf buf "  speculative runs     %d\n" o.Chop_auto.speculative_runs;
  Printf.bprintf buf "  batch rounds         %d\n" o.Chop_auto.batch_rounds;
  Printf.bprintf buf "  speculative wall     %.3f s\n"
    o.Chop_auto.spec_wall_seconds;
  Printf.bprintf buf "  speculative busy     %.3f s%s\n"
    o.Chop_auto.spec_busy_seconds
    (if o.Chop_auto.spec_wall_seconds > 0. then
       Printf.sprintf " (parallelism %.2fx)"
         (o.Chop_auto.spec_busy_seconds /. o.Chop_auto.spec_wall_seconds)
     else "");
  (if o.Chop_auto.batch_rounds > 0 then
     let r = float_of_int o.Chop_auto.batch_rounds in
     Printf.bprintf buf
       "  per round            %.2f run(s), %.1f ms busy / %.1f ms wall\n"
       (float_of_int o.Chop_auto.speculative_runs /. r)
       (1000. *. o.Chop_auto.spec_busy_seconds /. r)
       (1000. *. o.Chop_auto.spec_wall_seconds /. r));
  Printf.bprintf buf "  cache hits/misses    %d/%d\n"
    o.Chop_auto.cache_hits o.Chop_auto.cache_misses;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Distributed explore: the explore/slice wire payload and its merge.

   A backend answers explore/slice with raw per-slice counters and
   admitted/explored rows; the gateway decodes one payload per backend,
   checks the residue classes cover the first axis exactly, and replays
   every admission in global task order through a shared row front —
   {!Chop.Search.Slice.merge} at {!Chop.Search.Row} granularity.  Floats
   cross the wire as hex ([%h]) literals, so the merged rows are
   bit-identical to the single process's and the rendered block is
   byte-identical to [chop serve]'s. *)

module Json = Chop_util.Json
module Row = Chop.Search.Row

let row_to_json (r : Row.t) =
  Json.Array
    [
      Json.Int r.Row.ii_main;
      Json.Int r.Row.delay_cycles;
      Json.String (Row.float_to_wire r.Row.clock);
      Json.String (Row.float_to_wire r.Row.perf_ns);
      Json.String (Row.float_to_wire r.Row.delay_likely);
      Json.String (Row.float_to_wire r.Row.area_likely);
      Json.Bool r.Row.feasible;
    ]

let row_of_json = function
  | Json.Array
      [
        Json.Int ii_main;
        Json.Int delay_cycles;
        Json.String clock;
        Json.String perf_ns;
        Json.String delay_likely;
        Json.String area_likely;
        Json.Bool feasible;
      ] -> (
      try
        Ok
          {
            Row.ii_main;
            delay_cycles;
            clock = Row.float_of_wire clock;
            perf_ns = Row.float_of_wire perf_ns;
            delay_likely = Row.float_of_wire delay_likely;
            area_likely = Row.float_of_wire area_likely;
            feasible;
          }
      with Invalid_argument m -> Error m)
  | _ ->
      Error
        "malformed row (expected \
         [ii,delay_cycles,clock,perf,delay,area,feasible])"

let bad_to_json (b : Chop.Explore.bad_stats) =
  Json.Array
    [
      Json.String b.Chop.Explore.label;
      Json.Int b.Chop.Explore.total_predictions;
      Json.Int b.Chop.Explore.feasible_predictions;
      Json.Int b.Chop.Explore.kept;
    ]

let bad_of_json = function
  | Json.Array
      [ Json.String label; Json.Int total; Json.Int feasible; Json.Int kept ] ->
      Ok
        {
          Chop.Explore.label;
          total_predictions = total;
          feasible_predictions = feasible;
          kept;
        }
  | _ -> Error "malformed bad-stats entry (expected [label,total,feasible,kept])"

type slice_rows = {
  sl_index : int;  (** global first-axis index *)
  sl_trials : int;
  sl_admitted : Row.t list;  (** admission order *)
  sl_explored : Row.t list;  (** integration order *)
}

type slice_payload = {
  sp_first_total : int;
  sp_bad : Chop.Explore.bad_stats list;
  sp_slices : slice_rows list;
}

let slice_payload_fields (sr : Chop.Explore.Session.slice_run) =
  let slice_json gidx (sl : Chop.Search.Slice.t) =
    Json.Object
      [
        ("i", Json.Int gidx);
        ("trials", Json.Int sl.Chop.Search.Slice.trials);
        ("integrations", Json.Int sl.Chop.Search.Slice.integrations);
        ("avoided", Json.Int sl.Chop.Search.Slice.avoided);
        ("feasible", Json.Int sl.Chop.Search.Slice.feasible);
        ( "admitted",
          Json.Array
            (List.rev_map
               (fun s -> row_to_json (Row.of_system s))
               sl.Chop.Search.Slice.admitted_rev) );
        ( "explored",
          Json.Array
            (List.rev_map
               (fun s -> row_to_json (Row.of_system s))
               sl.Chop.Search.Slice.explored_rev) );
      ]
  in
  [
    ("first_total", Json.Int sr.Chop.Explore.Session.first_total);
    ( "bad",
      Json.Array (List.map bad_to_json sr.Chop.Explore.Session.slice_bad) );
    ( "slices",
      Json.Array
        (List.map2 slice_json sr.Chop.Explore.Session.slice_indices
           sr.Chop.Explore.Session.slices) );
  ]

let int_field name j =
  match Option.bind (Json.member name j) Json.to_int_opt with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "slice payload: missing integer %S" name)

let list_field name j =
  match Option.bind (Json.member name j) Json.to_list_opt with
  | Some l -> Ok l
  | None -> Error (Printf.sprintf "slice payload: missing array %S" name)

let decode_list decode js =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | j :: tl -> (
        match decode j with Ok v -> go (v :: acc) tl | Error _ as e -> e)
  in
  go [] js

let slice_payload_of_result j =
  let* first_total = int_field "first_total" j in
  let* bad = list_field "bad" j in
  let* bad = decode_list bad_of_json bad in
  let* slices = list_field "slices" j in
  let* slices =
    decode_list
      (fun sj ->
        let* sl_index = int_field "i" sj in
        let* sl_trials = int_field "trials" sj in
        let* admitted = list_field "admitted" sj in
        let* sl_admitted = decode_list row_of_json admitted in
        let* explored = list_field "explored" sj in
        let* sl_explored = decode_list row_of_json explored in
        Ok { sl_index; sl_trials; sl_admitted; sl_explored })
      slices
  in
  Ok { sp_first_total = first_total; sp_bad = bad; sp_slices = slices }

type merged_explore = {
  mx_bad : Chop.Explore.bad_stats list;
  mx_trials : int;
  mx_feasible : Row.t list;
  mx_explored : Row.t list;
}

let merge_slice_payloads payloads =
  match payloads with
  | [] -> Error "no slice payloads to merge"
  | first :: _ ->
      let ft = first.sp_first_total in
      if List.exists (fun p -> p.sp_first_total <> ft) payloads then
        Error "backends disagree on the first-axis size"
      else
        let slices =
          List.concat_map (fun p -> p.sp_slices) payloads
          |> List.sort (fun a b -> compare a.sl_index b.sl_index)
        in
        if List.map (fun s -> s.sl_index) slices <> List.init ft Fun.id then
          Error
            (Printf.sprintf
               "slice coverage mismatch: %d slice(s) over a %d-wide first axis"
               (List.length slices) ft)
        else begin
          (* mirror of {!Chop.Search.Slice.merge}: explored is the
             sequential accumulator (last integration first); the front
             replays every slice's admissions in global task order *)
          let explored =
            List.concat (List.rev_map (fun s -> List.rev s.sl_explored) slices)
          in
          let front =
            List.fold_left
              (fun front s ->
                List.fold_left
                  (fun front row -> fst (Row.admit row front))
                  front s.sl_admitted)
              [] slices
          in
          Ok
            {
              mx_bad = first.sp_bad;
              mx_trials =
                List.fold_left (fun acc s -> acc + s.sl_trials) 0 slices;
              mx_feasible = Row.finalize front;
              mx_explored = explored;
            }
        end

(* ------------------------------------------------------------------ *)
(* Session inventory: one line per open session, shared by the server's
   session/list op, the gateway's fan-out of it and the repl's
   [:sessions] command. *)

type session_line = {
  ses_id : string;
  ses_revision : int;
  ses_age_s : float;  (** seconds since last use *)
  ses_writer : string;  (** "" = anonymous *)
  ses_observers : int;
}

let compare_session_id a b =
  (* "s1" < "s2" < ... < "s10": length-then-lexicographic orders the
     server's numeric ids numerically and everything else predictably *)
  match compare (String.length a) (String.length b) with
  | 0 -> compare a b
  | n -> n

let render_sessions lines =
  match lines with
  | [] -> "no open sessions\n"
  | lines ->
      let lines =
        List.sort (fun a b -> compare_session_id a.ses_id b.ses_id) lines
      in
      let buf = Buffer.create 256 in
      Printf.bprintf buf "%d open session(s):\n" (List.length lines);
      List.iter
        (fun l ->
          Printf.bprintf buf
            "  %s: revision %d, idle %.0f s, writer %s, %d observer(s)\n"
            l.ses_id l.ses_revision l.ses_age_s
            (if l.ses_writer = "" then "-" else l.ses_writer)
            l.ses_observers)
        lines;
      Buffer.contents buf

let render_session_closed sid = Printf.sprintf "session %s closed\n" sid

let session_line_to_json l =
  Json.Object
    [
      ("id", Json.String l.ses_id);
      ("revision", Json.Int l.ses_revision);
      ("age_s", Json.Float l.ses_age_s);
      ("writer", Json.String l.ses_writer);
      ("observers", Json.Int l.ses_observers);
    ]

let session_line_of_json j =
  let str name =
    match Option.bind (Json.member name j) Json.to_string_opt with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "session line: missing string %S" name)
  in
  let* ses_id = str "id" in
  let* ses_revision = int_field "revision" j in
  let* ses_age_s =
    match Option.bind (Json.member "age_s" j) Json.to_float_opt with
    | Some f -> Ok f
    | None -> Error "session line: missing number \"age_s\""
  in
  let* ses_writer = str "writer" in
  let* ses_observers = int_field "observers" j in
  Ok { ses_id; ses_revision; ses_age_s; ses_writer; ses_observers }

let render_sensitivity = Chop.Sensitivity.render

let run_sensitivity ~config spec (p : Protocol.params) =
  if p.Protocol.values = [] then Error "sensitivity requires a non-empty values list"
  else
    match p.Protocol.parameter with
    | "perf" ->
        Ok
          (Chop.Sensitivity.performance_constraint ~config spec
             ~values:p.Protocol.values)
    | "delay" ->
        Ok (Chop.Sensitivity.delay_constraint ~config spec ~values:p.Protocol.values)
    | "clock" ->
        Ok (Chop.Sensitivity.main_clock ~config spec ~values:p.Protocol.values)
    | "pins" ->
        Ok
          (Chop.Sensitivity.pin_count ~config spec
             ~values:(List.map int_of_float p.Protocol.values))
    | s ->
        Error
          (Printf.sprintf "parameter must be perf, delay, clock or pins, not %S" s)
