(** The one implementation of the CLI's benchmark table, spec assembly
    and result rendering, shared by [bin/chop_cli] and the serving layer.

    Byte-identity between [chop explore] and a [chop serve] explore
    response is a guarantee of this module, by construction: both call
    the same renderer on the same report.  Renderers return only the
    {e deterministic} part of the output — no wall-clock times — so two
    runs of the same request compare equal; timings travel separately
    ({!render_explore_timing}, {!Protocol.timing}). *)

val benchmarks : (string * (unit -> Chop_dfg.Graph.t)) list
(** The built-in benchmark graphs: ar, ewf, fir16, fir8, diffeq, dct8,
    pcm_pwm.  Each entry builds a fresh graph. *)

val graph_of_name : string -> (Chop_dfg.Graph.t, string) result
val package_of_pins : int -> (Chop_tech.Chip.t, string) result
val heuristic_of_string : string -> (Chop.Explore.heuristic, string) result
val strategy_of_string : string -> (Chop_baseline.Autopart.strategy, string) result

val reference_cpu : Chop_model_sw.Processor.t
(** The embedded processor declared on HW/SW co-design runs: a 2-issue
    core named ["cpu"] at the 300 ns main clock, with a memory budget and
    bus width sized for the [pcm_pwm] case study. *)

val processors_for :
  benchmark:string ->
  impls:(string * string) list ->
  Chop_model_sw.Processor.t list
(** [[reference_cpu]] on the co-design benchmark ([pcm_pwm]) or whenever
    the caller binds a partition explicitly; [[]] otherwise, so every
    pre-existing benchmark builds the exact spec it always did. *)

val parse_impl_bindings :
  string list -> ((string * string) list, string) result
(** CLI [--impl PART=MODEL] bindings; label and model validation is left
    to {!Chop.Spec.make}. *)

val build_spec :
  ?processors:Chop_model_sw.Processor.t list ->
  ?impls:(string * string) list ->
  graph:Chop_dfg.Graph.t ->
  partitions:int ->
  package:Chop_tech.Chip.t ->
  perf:float ->
  delay:float ->
  multicycle:bool ->
  strategy:Chop_baseline.Autopart.strategy ->
  unit ->
  Chop.Spec.t
(** The CLI's benchmark rig: level-cut (or strategy-driven) partitioning,
    MOSIS chips, single-cycle datapath at 10x main clock (or multi-cycle
    at 1x), performance/delay criteria.  [processors] and [impls] (both
    default empty) declare software implementation models and per-
    partition bindings. *)

val spec_of_params : Protocol.params -> (Chop.Spec.t, string) result
(** {!build_spec} from wire parameters; [Error] on an unknown benchmark,
    package, or strategy, or an invalid partition count. *)

val config_of_params :
  jobs:int -> Protocol.params -> (Chop.Explore.Config.t, string) result
(** The engine configuration [chop explore] would build for these
    parameters: [keep_all] when [keep_all || csv], pre-pruning unless
    [no_prune], the given parallelism. *)

val engine_key : op:Protocol.op -> Protocol.params -> string
(** Canonical identity of the warm engine a request needs: every
    spec-shaping and config-shaping parameter, plus the op family
    (explore-family ops can share an engine; predict has its own
    configuration).  Rendering-only parameters ([verbose], [index],
    [top], sensitivity fields) are excluded, so requests differing only
    in presentation reuse the same engine.  Injective on those
    parameters: [perf] and [delay] print in their shortest exact form
    ({!Chop_util.Json.shortest_float}), so two requests share a key only
    when they would build the same spec and configuration — a server
    renders a request against the spec its engine was created from. *)

(** {1 Renderers} *)

val render_explore :
  Chop.Spec.t -> keep_all:bool -> csv:bool -> verbose:bool ->
  Chop.Explore.report -> string
(** The deterministic output of [chop explore]: with [keep_all], the
    feasible-front and explored CSV dump; with [csv], the explored dump;
    otherwise the per-partition BAD lines, the trial count and the
    feasible-implementation list (plus the designer guideline when
    [verbose]).  The CLI and the server both render through it, which is
    what makes them byte-identical. *)

val explore_feasible_count : Chop.Explore.report -> int

val render_explore_timing : Chop.Explore.report -> string
(** The wall-clock lines [chop explore] prints after the deterministic
    block: the predict and search phases' wall/busy seconds from the
    report's {!Chop.Explore.Metrics}, and the cache counters. *)

val render_predict :
  Chop.Spec.t -> index:int -> top:int ->
  (string * Chop_bad.Prediction.t list) list ->
  Chop.Explore.bad_stats list -> string
(** The output of [chop predict]: per-partition statistics and the top
    predictions, for one partition index or all ([index < 0]). *)

val render_advice : Chop.Advisor.judgement -> string
(** The output of [chop advise]: the advice line. *)

(** {1 The interactive edit-command language}

    One command per line, shared by [chop repl] and the server's
    [session/edit] op:

    {v
    move <op> <partition>        merge <src> <dst>
    split <from> <new> <op[,op...]>
    assign <partition> <chip>    package <chip> <64|84>
    rehost <block> <chip>        clocks <main_ns> <dp_ratio> <tr_ratio>
    criteria <perf_ns> <delay_ns> impl <partition> <hw|processor>
    v}

    [<op>] operands are graph node ids or node names. *)

val edit_commands : string
(** One-line syntax summary, used in error messages and [repl] help. *)

val parse_edit : Chop.Spec.t -> string -> (Chop.Spec.edit, string) result
(** Parse one edit command.  Only graph-node operands are resolved here
    (against [spec.graph], which edits never change); partition, chip and
    memory names are validated by {!Chop.Spec.update}. *)

val parse_edits :
  Chop.Spec.t -> string list -> (Chop.Spec.edit list, string) result
(** {!parse_edit} over a list; the first failure rejects the list with its
    0-based position prefixed. *)

val render_dirty : Chop.Spec.dirty -> string
(** The acknowledgement line for an applied edit list:
    ["ok: re-predict P1 P2; removed P3\n"], or
    ["ok: nothing to re-predict\n"] when the edits invalidate no
    predictive work. *)

val render_parts : Chop.Spec.t -> string
(** One line per partition: label, operation count, assigned chip, plus a
    [[model <name>]] tag for partitions bound to a software model
    (hardware partitions render exactly as before). *)

(** {1 Automatic partitioning (chop auto / session/optimize)} *)

val parse_constraints :
  Chop.Spec.t ->
  pins:string list ->
  together:string list ->
  (Chop_auto.constraints, string) result
(** [pins] entries are ["op=partition"], [together] entries are
    ["op,op,..."] with at least two operations; [op] operands are node
    ids or names ({!parse_edit} syntax).  Partition labels stay symbolic
    here — {!Chop_auto.refine} validates them against the spec. *)

val constraints_of_params :
  Chop.Spec.t -> Protocol.params -> (Chop_auto.constraints, string) result
(** {!parse_constraints} on the wire parameters. *)

val render_auto : Chop.Spec.t -> Chop_auto.outcome -> string
(** The deterministic output of [chop auto] and a [session/optimize]
    response: the level/move summary, the seed-vs-final comparison, the
    final partition table and the final state's explore block.  Cache
    counters and wall times are excluded (they depend on cache warmth),
    so CLI and serve renderings of the same seeded run compare equal. *)

val render_auto_timing : Chop_auto.outcome -> string
(** The wall-clock/cache line [chop auto] prints after the deterministic
    block: wall seconds, the pool's job count with the speculative
    busy/wall split, and the refinement cache hit/miss counters with
    the hit rate. *)

val render_auto_stats : Chop_auto.outcome -> string
(** The [chop auto --stats] block: speculative run/round counts, the
    busy/wall split with effective parallelism, per-round averages and
    the cache counters. *)

(** {1 Session inventory} *)

type session_line = {
  ses_id : string;
  ses_revision : int;
  ses_age_s : float;  (** seconds since last use *)
  ses_writer : string;  (** "" = anonymous *)
  ses_observers : int;
}

val render_sessions : session_line list -> string
(** One line per open session, in the given order: the text of
    {!session_list_result} and of the repl's [:sessions] command. *)

val session_list_result : session_line list -> (string * Chop_util.Json.t) list
(** The result fields of a [session/list] response: the structured
    [sessions] array and its {!render_sessions} [text], both sorted by
    id (numerically for the server's [s<n>] ids).  Serve and the
    gateway (over its backends' merged lines) both answer with it, so
    their responses agree byte for byte. *)

val render_session_closed : string -> string
(** The acknowledgement text of [session/close] (and of the migration
    handoff's closing half): ["session <id> closed\n"]. *)

val session_line_of_json :
  Chop_util.Json.t -> (session_line, string) result
(** The structured [sessions] entries of a [session/list] response — what
    the gateway decodes to merge inventories across backends. *)

val render_sensitivity : Chop.Sensitivity.sweep -> string

val run_sensitivity :
  config:Chop.Explore.Config.t -> Chop.Spec.t -> Protocol.params ->
  (Chop.Sensitivity.sweep, string) result
(** Dispatches on [params.parameter]: ["perf"], ["delay"], ["clock"]
    (float sweeps) or ["pins"] (values truncated to ints).  [Error] on an
    unknown parameter or an empty value list. *)
