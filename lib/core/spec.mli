(** The partitioning problem specification — CHOP's six input groups
    (paper, section 2.2):

    - the behavioral specification (a data-flow graph),
    - a library of components,
    - the chip set onto which the design is to be partitioned,
    - memory modules and their assignments to chips,
    - partitions and assignments of partitions to chips,
    - clocks, architecture style, feasibility criteria, design parameters. *)

type chip_instance = {
  chip_name : string;
  package : Chop_tech.Chip.t;
}

type params = {
  alloc_cap : int;  (** BAD serial-parallel enumeration cap per class *)
  max_pipelined_iis : int;  (** BAD II options per pipelined design *)
  testability_overhead : float;  (** fractional scan overhead; 0 = off *)
  discard_inferior : bool;
      (** first-level pruning: discard infeasible/inferior predictions
          immediately (paper, section 2.1); disable to explore the whole
          design space (Figures 7 and 8) *)
}

val default_params : params

type t = private {
  graph : Chop_dfg.Graph.t;
  library : Chop_tech.Component.library;
  chips : chip_instance list;
  memories : Chop_tech.Memory.t list;
  memory_hosts : (string * string) list;
      (** memory block -> chip carrying it (on-chip blocks only) *)
  partitioning : Chop_dfg.Partition.partitioning;
  assignment : (string * string) list;  (** partition label -> chip name *)
  clocks : Chop_tech.Clocking.t;
  style : Chop_tech.Style.t;
  criteria : Chop_bad.Feasibility.criteria;
  params : params;
  processors : Chop_model_sw.Processor.t list;
      (** software implementation targets a partition may be bound to *)
  impls : (string * string) list;
      (** partition label -> processor name; absent = the hardware model.
          Normalised: explicit ["hw"] bindings are dropped by {!make} *)
}

exception Invalid_spec of string

val make :
  ?params:params ->
  ?memories:Chop_tech.Memory.t list ->
  ?memory_hosts:(string * string) list ->
  ?processors:Chop_model_sw.Processor.t list ->
  ?impls:(string * string) list ->
  graph:Chop_dfg.Graph.t ->
  library:Chop_tech.Component.library ->
  chips:chip_instance list ->
  partitioning:Chop_dfg.Partition.partitioning ->
  assignment:(string * string) list ->
  clocks:Chop_tech.Clocking.t ->
  style:Chop_tech.Style.t ->
  criteria:Chop_bad.Feasibility.criteria ->
  unit ->
  t
(** Validates the six groups together.  @raise Invalid_spec when: a
    partition is unassigned or assigned to an unknown chip, chip names
    repeat, the library misses a functional class, a memory block referenced
    by the graph is undeclared, an on-chip block has no host (or a host that
    does not exist), or an off-chip block is given a host.  Implementation
    models add: processor names must be unique, an [impls] binding must name
    a live partition and a declared processor (or ["hw"]), a partition may
    be bound at most once, and every partition on one chip must follow the
    same model (a chip is either a custom die or one processor instance). *)

(** {1 Incremental edits}

    The paper's interactive workflow (section 2.2) has the designer move
    operations between partitions, reassign partitions to chips, rehost
    memories and retune constraints, then immediately re-check feasibility.
    [update] applies such edits to a validated spec and reports which
    partitions lost predictive work, so an exploration session can re-predict
    only what the edit touched. *)

type edit =
  | Move_op of { op : Chop_dfg.Graph.node_id; to_partition : string }
      (** move one operation into another partition *)
  | Merge_parts of { src : string; dst : string }
      (** absorb [src] into [dst]; [dst] keeps its label *)
  | Split_part of {
      from_partition : string;
      members : Chop_dfg.Graph.node_id list;
      new_label : string;
    }  (** carve [members] out of [from_partition] into a fresh partition,
           assigned to the same chip *)
  | Reassign_chip of { partition : string; chip : string }
  | Swap_package of { chip : string; package : Chop_tech.Chip.t }
  | Rehost_memory of { block : string; chip : string }
      (** on-chip blocks only *)
  | Set_clocks of Chop_tech.Clocking.t
  | Set_criteria of Chop_bad.Feasibility.criteria
  | Set_impl of { partition : string; impl : string }
      (** rebind the partition to a declared processor, or back to ["hw"].
          Dirties the partition for re-prediction (the models' predictors
          share nothing).  Rejected if the move would leave the partition's
          chip hosting two models — reassign the chip first. *)

type dirty = {
  repredict : string list;
      (** partitions whose subgraph or predictor configuration changed: the
          BAD enumeration itself must re-run *)
  rederive : string list;
      (** partitions whose raw enumeration survives but whose feasibility
          screening (chip or criteria) changed: a cache raw-layer hit *)
  removed : string list;  (** labels no longer present *)
}

type update_error = {
  index : int;  (** 0-based position of the rejected edit *)
  reason : string;
}

val pp_update_error : Format.formatter -> update_error -> unit

val update : t -> edit list -> (t * dirty, update_error) result
(** Apply edits left to right, each validated against the spec produced by
    its predecessors; the first invalid edit rejects the whole list (the
    input spec is never mutated — it remains valid and usable).  Never
    raises.  On success the dirty sets are normalised against the final
    partitioning: [repredict] and [rederive] are disjoint sets of live
    labels ([repredict] wins), [removed] holds labels that no longer
    exist. *)

val diff : current:t -> target:t -> dirty
(** The dirty set of jumping from [current] straight to [target] — the
    undo/redo move, which lands on a spec that is not one {!update} step
    away.  Conservative and sound: a change to any global predictor input
    (clocks, style, params, memory or processor declarations) dirties every
    partition of [target]; otherwise partitions whose member sets or
    implementation-model bindings differ [repredict],
    and partitions whose chip (name or package) or whose criteria changed
    [rederive].  Both specs must describe the same graph (undo/redo chains
    always do). *)

val chip : t -> string -> chip_instance
(** @raise Not_found for an unknown chip name. *)

val chip_of_partition : t -> string -> chip_instance
(** @raise Not_found for an unknown partition label. *)

val impl_of_partition : t -> string -> string
(** The partition's implementation-model name; ["hw"] when unbound. *)

val processor : t -> string -> Chop_model_sw.Processor.t
(** @raise Not_found for an unknown processor name. *)

val processor_of_partition : t -> string -> Chop_model_sw.Processor.t option
(** [None] for hardware partitions. *)

val processor_of_chip : t -> string -> Chop_model_sw.Processor.t option
(** The processor instance a chip stands for, [None] for hardware chips
    (and for chips hosting no partition — they carry no model). *)

val partitions_on : t -> string -> Chop_dfg.Partition.t list
(** Partitions assigned to the chip, in quotient-topological order. *)

val memory : t -> string -> Chop_tech.Memory.t
(** @raise Not_found for an unknown block name. *)

val memory_host : t -> string -> string option
(** Chip carrying the block; [None] for off-chip packages. *)

val partitions_accessing : t -> string -> string list
(** Labels of partitions whose operations touch the memory block. *)

val memories_of_partition : t -> string -> Chop_tech.Memory.t list
(** Memory blocks the partition's operations reference, sorted by name. *)

val pp : Format.formatter -> t -> unit
