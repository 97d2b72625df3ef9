module Json = Chop_util.Json

type op =
  | Explore
  | Predict
  | Advise
  | Sensitivity
  | Stats
  | Ping
  | Session_open
  | Session_edit
  | Session_undo
  | Session_redo
  | Session_run
  | Session_optimize
  | Session_attach
  | Session_detach
  | Session_list
  | Session_save
  | Session_close
  | Gateway_migrate

let op_to_string = function
  | Explore -> "explore"
  | Predict -> "predict"
  | Advise -> "advise"
  | Sensitivity -> "sensitivity"
  | Stats -> "stats"
  | Ping -> "ping"
  | Session_open -> "session/open"
  | Session_edit -> "session/edit"
  | Session_undo -> "session/undo"
  | Session_redo -> "session/redo"
  | Session_run -> "session/run"
  | Session_optimize -> "session/optimize"
  | Session_attach -> "session/attach"
  | Session_detach -> "session/detach"
  | Session_list -> "session/list"
  | Session_save -> "session/save"
  | Session_close -> "session/close"
  | Gateway_migrate -> "gateway/migrate"

let all_ops =
  [
    Explore; Predict; Advise; Sensitivity; Stats; Ping;
    Session_open; Session_edit; Session_undo; Session_redo; Session_run;
    Session_optimize; Session_attach; Session_detach; Session_list;
    Session_save; Session_close; Gateway_migrate;
  ]

let op_of_string s =
  match List.find_opt (fun op -> op_to_string op = s) all_ops with
  | Some op -> Ok op
  | None -> Error (Printf.sprintf "unknown op %S" s)

type params = {
  benchmark : string;
  partitions : int;
  package : int;
  perf : float;
  delay : float;
  multicycle : bool;
  heuristic : string;
  strategy : string;
  keep_all : bool;
  csv : bool;
  no_prune : bool;
  verbose : bool;
  index : int;
  top : int;
  parameter : string;
  values : float list;
  session : string;  (** session id for session/* ops *)
  edits : string list;  (** edit-command lines for session/edit *)
  seed : int;  (** tie-breaking seed for session/optimize *)
  max_moves : int;  (** candidate-move budget for session/optimize *)
  time_limit_ms : float;  (** optimize time budget; 0 = unlimited *)
  coarse : int;  (** coarsening target cluster count; 0 = automatic *)
  pins : string list;  (** "op=partition" fixed-vertex constraints *)
  together : string list;  (** "op,op,..." community constraints *)
  client : string;  (** caller identity for multi-client sessions *)
  restore : bool;
      (** session/open: require a state-dir snapshot and restore from it *)
  close : bool;  (** session/save: close the session after persisting *)
}

let default_params =
  {
    benchmark = "ar";
    partitions = 2;
    package = 84;
    perf = 30000.;
    delay = 30000.;
    multicycle = false;
    heuristic = "i";
    strategy = "levels";
    keep_all = false;
    csv = false;
    no_prune = false;
    verbose = false;
    index = -1;
    top = 3;
    parameter = "perf";
    values = [];
    session = "";
    edits = [];
    seed = 1;
    max_moves = 1024;
    time_limit_ms = 0.;
    coarse = 0;
    pins = [];
    together = [];
    client = "";
    restore = false;
    close = false;
  }

type request = {
  id : string;
  op : op;
  deadline_ms : float option;
  params : params;
}

(* Field decoding: absent -> default; present with the wrong shape -> a
   [bad_request] error naming the field, never a silent fallback. *)
let field name conv json ~default k =
  match Json.member name json with
  | None -> k default
  | Some v -> (
      match conv v with
      | Some x -> k x
      | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let ( let* ) r f = Result.bind r f

let request_of_json json =
  match json with
  | Json.Object _ ->
      let str = Json.to_string_opt
      and int = Json.to_int_opt
      and flt = Json.to_float_opt
      and bool = Json.to_bool_opt in
      let floats v =
        match Json.to_list_opt v with
        | None -> None
        | Some xs ->
            let rec conv acc = function
              | [] -> Some (List.rev acc)
              | x :: tl -> (
                  match Json.to_float_opt x with
                  | Some f -> conv (f :: acc) tl
                  | None -> None)
            in
            conv [] xs
      in
      let d = default_params in
      let* id = field "id" str json ~default:"-" Result.ok in
      let* op_name = field "op" str json ~default:"explore" Result.ok in
      let* op = op_of_string op_name in
      let* deadline_ms =
        field "deadline_ms" (fun v -> Option.map Option.some (flt v)) json
          ~default:None Result.ok
      in
      let* benchmark = field "benchmark" str json ~default:d.benchmark Result.ok in
      let* partitions = field "partitions" int json ~default:d.partitions Result.ok in
      let* package = field "package" int json ~default:d.package Result.ok in
      let* perf = field "perf" flt json ~default:d.perf Result.ok in
      let* delay = field "delay" flt json ~default:d.delay Result.ok in
      let* multicycle = field "multicycle" bool json ~default:d.multicycle Result.ok in
      let* heuristic = field "heuristic" str json ~default:d.heuristic Result.ok in
      let* strategy = field "strategy" str json ~default:d.strategy Result.ok in
      let* keep_all = field "keep_all" bool json ~default:d.keep_all Result.ok in
      let* csv = field "csv" bool json ~default:d.csv Result.ok in
      let* no_prune = field "no_prune" bool json ~default:d.no_prune Result.ok in
      let* verbose = field "verbose" bool json ~default:d.verbose Result.ok in
      let* index = field "index" int json ~default:d.index Result.ok in
      let* top = field "top" int json ~default:d.top Result.ok in
      let* parameter = field "parameter" str json ~default:d.parameter Result.ok in
      let* values = field "values" floats json ~default:d.values Result.ok in
      let strings v =
        match Json.to_list_opt v with
        | None -> None
        | Some xs ->
            let rec conv acc = function
              | [] -> Some (List.rev acc)
              | x :: tl -> (
                  match Json.to_string_opt x with
                  | Some s -> conv (s :: acc) tl
                  | None -> None)
            in
            conv [] xs
      in
      let* session = field "session" str json ~default:d.session Result.ok in
      let* edits = field "edits" strings json ~default:d.edits Result.ok in
      let* seed = field "seed" int json ~default:d.seed Result.ok in
      let* max_moves = field "max_moves" int json ~default:d.max_moves Result.ok in
      let* time_limit_ms =
        field "time_limit_ms" flt json ~default:d.time_limit_ms Result.ok
      in
      let* coarse = field "coarse" int json ~default:d.coarse Result.ok in
      let* pins = field "pins" strings json ~default:d.pins Result.ok in
      let* together = field "together" strings json ~default:d.together Result.ok in
      let* client = field "client" str json ~default:d.client Result.ok in
      let* restore = field "restore" bool json ~default:d.restore Result.ok in
      let* close = field "close" bool json ~default:d.close Result.ok in
      Ok
        {
          id;
          op;
          deadline_ms;
          params =
            {
              benchmark;
              partitions;
              package;
              perf;
              delay;
              multicycle;
              heuristic;
              strategy;
              keep_all;
              csv;
              no_prune;
              verbose;
              index;
              top;
              parameter;
              values;
              session;
              edits;
              seed;
              max_moves;
              time_limit_ms;
              coarse;
              pins;
              together;
              client;
              restore;
              close;
            };
        }
  | _ -> Error "request must be a JSON object"

let parse_request line =
  let* json = Json.parse line in
  request_of_json json

let request_to_json r =
  let p = r.params in
  let deadline =
    match r.deadline_ms with
    | None -> []
    | Some ms -> [ ("deadline_ms", Json.Float ms) ]
  in
  Json.Object
    ([
       ("id", Json.String r.id);
       ("op", Json.String (op_to_string r.op));
     ]
    @ deadline
    @ [
        ("benchmark", Json.String p.benchmark);
        ("partitions", Json.Int p.partitions);
        ("package", Json.Int p.package);
        ("perf", Json.Float p.perf);
        ("delay", Json.Float p.delay);
        ("multicycle", Json.Bool p.multicycle);
        ("heuristic", Json.String p.heuristic);
        ("strategy", Json.String p.strategy);
        ("keep_all", Json.Bool p.keep_all);
        ("csv", Json.Bool p.csv);
        ("no_prune", Json.Bool p.no_prune);
        ("verbose", Json.Bool p.verbose);
        ("index", Json.Int p.index);
        ("top", Json.Int p.top);
        ("parameter", Json.String p.parameter);
        ("values", Json.Array (List.map (fun v -> Json.Float v) p.values));
        ("session", Json.String p.session);
        ("edits", Json.Array (List.map (fun e -> Json.String e) p.edits));
        ("seed", Json.Int p.seed);
        ("max_moves", Json.Int p.max_moves);
        ("time_limit_ms", Json.Float p.time_limit_ms);
        ("coarse", Json.Int p.coarse);
        ("pins", Json.Array (List.map (fun s -> Json.String s) p.pins));
        ("together", Json.Array (List.map (fun s -> Json.String s) p.together));
        ("client", Json.String p.client);
        ("restore", Json.Bool p.restore);
        ("close", Json.Bool p.close);
      ])

type error_code = Overloaded | Deadline | Bad_request | Shutting_down | Internal

let error_code_to_string = function
  | Overloaded -> "overloaded"
  | Deadline -> "deadline"
  | Bad_request -> "bad_request"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

type timing = {
  queue_ms : float;
  run_ms : float;
  predict_ms : float;
  search_ms : float;
  merge_ms : float;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  moves_tried : int;  (** session/optimize only; 0 elsewhere *)
  moves_accepted : int;  (** session/optimize only; 0 elsewhere *)
  speculative_runs : int;  (** session/optimize only; 0 elsewhere *)
  batch_rounds : int;  (** session/optimize only; 0 elsewhere *)
  spec_busy_ms : float;  (** session/optimize only; 0 elsewhere *)
  spec_wall_ms : float;  (** session/optimize only; 0 elsewhere *)
  jobs : int;  (** effective pool parallelism behind the run *)
}

let no_engine_timing ~queue_ms ~run_ms =
  {
    queue_ms;
    run_ms;
    predict_ms = 0.;
    search_ms = 0.;
    merge_ms = 0.;
    cache_hits = 0;
    cache_misses = 0;
    cache_evictions = 0;
    moves_tried = 0;
    moves_accepted = 0;
    speculative_runs = 0;
    batch_rounds = 0;
    spec_busy_ms = 0.;
    spec_wall_ms = 0.;
    jobs = 0;
  }

let timing_of_report ~queue_ms ~run_ms (report : Chop.Explore.report) =
  let m = report.Chop.Explore.metrics in
  let module M = Chop.Explore.Metrics in
  {
    (no_engine_timing ~queue_ms ~run_ms) with
    predict_ms = m.M.predict.M.wall_seconds *. 1000.;
    search_ms = m.M.search.M.wall_seconds *. 1000.;
    merge_ms = m.M.merge_wall_seconds *. 1000.;
    cache_hits = m.M.cache_hits;
    cache_misses = m.M.cache_misses;
    cache_evictions = m.M.cache_evictions;
    jobs = report.Chop.Explore.jobs;
  }

(* session/optimize timing: cache counters are summed across every
   refinement run; the per-phase breakdown has no single-run meaning, so
   only the aggregate wall time is reported. *)
let optimize_timing ~queue_ms ~run_ms (o : Chop_auto.outcome) =
  {
    (no_engine_timing ~queue_ms ~run_ms) with
    cache_hits = o.Chop_auto.cache_hits;
    cache_misses = o.Chop_auto.cache_misses;
    moves_tried = o.Chop_auto.moves_tried;
    moves_accepted = o.Chop_auto.moves_accepted;
    speculative_runs = o.Chop_auto.speculative_runs;
    batch_rounds = o.Chop_auto.batch_rounds;
    spec_busy_ms = o.Chop_auto.spec_busy_seconds *. 1000.;
    spec_wall_ms = o.Chop_auto.spec_wall_seconds *. 1000.;
    jobs = o.Chop_auto.jobs;
  }

let timing_to_json t =
  Json.Object
    [
      ("queue_ms", Json.Float t.queue_ms);
      ("run_ms", Json.Float t.run_ms);
      ("predict_ms", Json.Float t.predict_ms);
      ("search_ms", Json.Float t.search_ms);
      ("merge_ms", Json.Float t.merge_ms);
      ("cache_hits", Json.Int t.cache_hits);
      ("cache_misses", Json.Int t.cache_misses);
      ("cache_evictions", Json.Int t.cache_evictions);
      ("moves_tried", Json.Int t.moves_tried);
      ("moves_accepted", Json.Int t.moves_accepted);
      ("speculative_runs", Json.Int t.speculative_runs);
      ("batch_rounds", Json.Int t.batch_rounds);
      ("spec_busy_ms", Json.Float t.spec_busy_ms);
      ("spec_wall_ms", Json.Float t.spec_wall_ms);
      ("jobs", Json.Int t.jobs);
    ]

let ok_response ~id ~op ?timing fields =
  Json.Object
    ([
       ("id", Json.String id);
       ("ok", Json.Bool true);
       ("op", Json.String (op_to_string op));
       ("result", Json.Object fields);
     ]
    @
    match timing with
    | None -> []
    | Some t -> [ ("timing", timing_to_json t) ])

let error_response ~id ~code message =
  Json.Object
    [
      ("id", Json.String id);
      ("ok", Json.Bool false);
      ("error",
       Json.Object
         [
           ("code", Json.String (error_code_to_string code));
           ("message", Json.String message);
         ]);
    ]

let response_id json = Option.bind (Json.member "id" json) Json.to_string_opt
let response_ok json = Option.bind (Json.member "ok" json) Json.to_bool_opt

let response_error_code json =
  Option.bind (Json.member "error" json) (fun e ->
      Option.bind (Json.member "code" e) Json.to_string_opt)

let response_text json =
  Option.bind (Json.member "result" json) (fun r ->
      Option.bind (Json.member "text" r) Json.to_string_opt)
