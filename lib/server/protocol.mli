(** The wire protocol of [chop serve]: newline-delimited JSON.

    Every request is one JSON object on one line; every response is one
    JSON object on one line.  Responses carry the request's [id] and may
    arrive out of order when a connection pipelines several requests —
    clients correlate by id, never by position.

    A request looks like

    {v
    {"id":"r1","op":"explore","benchmark":"ewf","partitions":2,
     "heuristic":"i","keep_all":true,"deadline_ms":5000}
    v}

    Omitted parameters take the CLI defaults ({!default_params}), so an
    empty parameter set explores the [ar] benchmark exactly as a bare
    [chop explore] would.  Responses are either

    {v
    {"id":"r1","ok":true,"op":"explore","result":{...},"timing":{...}}
    {"id":"r1","ok":false,"error":{"code":"overloaded","message":"..."}}
    v}

    The [result.text] field of an explore/predict/advise/sensitivity
    response is byte-identical to the corresponding CLI subcommand's
    deterministic output — both sides render through {!Ops}.

    The [session/*] ops drive a server-held {!Chop.Explore.Session}:
    [session/open] builds a spec from the same parameters as [explore] and
    answers with a session id; [session/edit] applies edit-command lines
    ({!Ops.parse_edit} syntax) to it; [session/run] explores the edited
    spec (re-predicting only partitions edits dirtied) and renders the
    same deterministic block as [explore]; [session/optimize] runs the
    {!Chop_auto} multilevel coarsen–refine partitioner on the session's
    spec (honouring [seed]/[max_moves]/[time_limit_ms]/[coarse]/[pins]/
    [together], deadline-cancellable, moves and refinement cache counters
    reported in [timing]); [session/close] frees it.  Sessions are
    evicted after a TTL of inactivity or by LRU when the session table is
    full. *)

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
  | Session_attach  (** join an existing session as a read-only observer *)
  | Session_detach
  | Session_list
  | Session_save
      (** persist the session to the state dir now; [close=true] also
          closes it (the migration handoff) *)
  | Session_close
  | Gateway_migrate
      (** gateway-level: move a session to another backend through the
          snapshot format; backends answer it with [bad_request] *)

val all_ops : op list
(** Every op, in declaration order. *)

val op_to_string : op -> string
(** The op's wire name, e.g. ["session/open"]. *)

val op_of_string : string -> (op, string) result
(** The inverse of {!op_to_string} over {!all_ops}. *)

(** Exploration parameters, mirroring the CLI flags of [chop explore] /
    [chop predict] / [chop advise].  [index]/[top] only matter to
    [Predict]; [parameter]/[values] only to [Sensitivity]. *)
type params = {
  benchmark : string;
  partitions : int;
  package : int;  (** MOSIS package pin count: 64 or 84 *)
  perf : float;  (** performance constraint, ns *)
  delay : float;  (** system delay constraint, ns *)
  multicycle : bool;
  heuristic : string;  (** "e" | "i" | "b" *)
  strategy : string;  (** "levels" | "min-cut" | "random" *)
  keep_all : bool;
  csv : bool;
  no_prune : bool;
  verbose : bool;
  index : int;  (** predict: partition index, -1 for all *)
  top : int;  (** predict: predictions shown per partition *)
  parameter : string;  (** sensitivity: "perf" | "delay" | "pins" | "clock" *)
  values : float list;  (** sensitivity: swept values, in order *)
  session : string;  (** session/*: the session id ("" = unset) *)
  edits : string list;  (** session/edit: edit-command lines, applied in order *)
  seed : int;  (** session/optimize: deterministic tie-breaking seed *)
  max_moves : int;  (** session/optimize: candidate-move budget *)
  time_limit_ms : float;  (** session/optimize: time budget; 0 = unlimited *)
  coarse : int;
      (** session/optimize: coarsening target cluster count; 0 (the
          default) picks it automatically from the partition count *)
  pins : string list;
      (** session/optimize: ["op=partition"] fixed-vertex constraints;
          [op] is a node id or name ({!Ops.parse_edit} operand syntax) *)
  together : string list;
      (** session/optimize: ["op,op,..."] community constraints *)
  client : string;
      (** caller identity ("" = anonymous).  The client that opens a
          session is its writer; other clients may [session/attach] as
          read-only observers.  Logged per request for edit attribution. *)
  restore : bool;
      (** session/open: require an existing snapshot in the server's state
          dir for [session] and restore it (otherwise [bad_request]);
          without it, open restores opportunistically when a snapshot for
          the requested id exists *)
  close : bool;  (** session/save: close the session after persisting *)
}

val default_params : params
(** The CLI defaults: [ar], 2 partitions, 84-pin package, 30000 ns
    constraints, single-cycle, iterative heuristic, levels strategy. *)

type request = {
  id : string;  (** echoed on the response; defaults to ["-"] *)
  op : op;
  deadline_ms : float option;
      (** per-request budget in milliseconds, measured from admission;
          a non-positive value is already expired (used by tests for a
          deterministic timeout) *)
  params : params;
}

val request_of_json : Chop_util.Json.t -> (request, string) result
(** Decodes one request object.  Unknown fields are ignored; a wrong
    type on a known field, an unknown [op], or a non-object input is an
    error (the server answers it with code [bad_request]). *)

val parse_request : string -> (request, string) result
(** [request_of_json] composed with {!Chop_util.Json.parse}. *)

val request_to_json : request -> Chop_util.Json.t
(** Encodes a request; the client side of {!request_of_json}.  Emits
    every parameter field explicitly. *)

(** {1 Responses} *)

type error_code = Overloaded | Deadline | Bad_request | Shutting_down | Internal

val error_code_to_string : error_code -> string

(** Per-request wall-clock breakdown, echoed in responses and the access
    log.  The cache counters are the engine-run deltas
    ({!Chop.Explore.Metrics}); they are zero for requests that run no
    engine — among them a repeated explore, advise or predict that a
    warm engine answers from its stored answer ({!no_engine_timing}:
    [jobs] 0, [search_ms] 0). *)
type timing = {
  queue_ms : float;  (** admission to dequeue *)
  run_ms : float;  (** dequeue to response built *)
  predict_ms : float;
  search_ms : float;
  merge_ms : float;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  moves_tried : int;
      (** session/optimize: candidate moves evaluated; 0 elsewhere *)
  moves_accepted : int;
      (** session/optimize: moves kept; 0 elsewhere *)
  speculative_runs : int;
      (** session/optimize: probe evaluations run on session forks; 0
          elsewhere *)
  batch_rounds : int;
      (** session/optimize: speculative waves dispatched; 0 elsewhere *)
  spec_busy_ms : float;
      (** session/optimize: pool busy time inside speculative waves *)
  spec_wall_ms : float;
      (** session/optimize: wall time inside speculative waves *)
  jobs : int;
      (** effective pool parallelism behind the run (0 when no engine
          ran) *)
}

val timing_of_report : queue_ms:float -> run_ms:float -> Chop.Explore.report -> timing

val no_engine_timing : queue_ms:float -> run_ms:float -> timing
(** A {!timing} with the engine fields zeroed. *)

val optimize_timing :
  queue_ms:float -> run_ms:float -> Chop_auto.outcome -> timing
(** Timing for a [session/optimize] response: cache counters summed
    across every refinement run, plus the move counters. *)

val ok_pieces : id:string -> op:op -> timing:timing -> string -> string list
(** [ok_pieces ~id ~op ~timing result] is an ok response line in three
    pieces: the envelope up to ["result":], [result] itself (a printed
    JSON object, passed through untouched) and the [timing] tail.  Their
    concatenation is the compact print of
    [{"id":id,"ok":true,"op":...,"result":{...},"timing":{...}}].  A
    transport writes the pieces one after another ({!Listener.handler}),
    so a stored 200 KB result is never copied into a fresh line. *)

val error_response :
  id:string -> code:error_code -> string -> Chop_util.Json.t
(** [{"id":id,"ok":false,"error":{"code":...,"message":...}}]. *)

val response_id : Chop_util.Json.t -> string option
val response_ok : Chop_util.Json.t -> bool option
val response_error_code : Chop_util.Json.t -> string option
val response_text : Chop_util.Json.t -> string option
(** [result.text] of an ok response. *)
