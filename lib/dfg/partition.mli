(** Behavioral partitions.

    A partitioning assigns every computational node of a DFG to exactly one
    named partition.  CHOP requires that no two partitions have mutual data
    dependency (paper, section 2.3): the quotient graph over partitions must
    be acyclic, because each partition is predicted and implemented
    independently. *)

type t = private {
  label : string;
  members : Graph.node_id list;  (** computational nodes, sorted *)
}

val make : label:string -> Graph.node_id list -> t
(** @raise Invalid_argument on an empty member list. *)

type flow = {
  producer : string;  (** producing partition label *)
  consumer : string;  (** consuming partition label *)
  bits : Chop_util.Units.bits;  (** distinct value bits crossing the cut *)
  values : Graph.node_id list;  (** producing nodes of the cut values *)
}

type index
(** What the validator derives from the owner relation: the owner of
    each node, the cut flows (and so the quotient edges) and the
    topological part order.  Built once by {!partitioning}, read by
    {!part_of}, {!flows}, {!quotient_edges} and {!topological_parts};
    opaque and immutable. *)

type partitioning = private {
  graph : Graph.t;
  parts : t list;
  index : index;
}

exception Invalid_partitioning of string

val partitioning : Graph.t -> t list -> partitioning
(** Validates and freezes a partitioning.  @raise Invalid_partitioning when
    members are unknown or non-computational, a node is assigned twice or
    not at all, a partition label repeats, or the quotient graph over the
    partitions is cyclic (mutual data dependency). *)

val find : partitioning -> string -> t
(** @raise Not_found for an unknown label. *)

val part_of : partitioning -> Graph.node_id -> t
(** Partition owning a computational node, in constant time.
    @raise Not_found for boundary nodes and unknown ids. *)

val subgraph : partitioning -> t -> Graph.t
(** The induced sub-DFG of a partition, with boundary [Input]/[Output] nodes
    for cut values (see {!Graph.induced}). *)

(** {1 Cut analysis} *)

val flows : partitioning -> flow list
(** One flow per ordered (producer, consumer) partition pair with at least
    one cut value, sorted by labels.  A value consumed by several
    partitions appears in each consumer's flow. *)

val external_input_bits : partitioning -> t -> Chop_util.Units.bits
(** Bits of primary-input values (of the original graph) consumed by the
    partition — these arrive from off-board. *)

val external_output_bits : partitioning -> t -> Chop_util.Units.bits
(** Bits of values the partition drives to primary outputs. *)

val cut_bits_total : partitioning -> Chop_util.Units.bits
(** Total inter-partition cut size, counting each (value, consumer pair)
    once — the classic min-cut objective, for baseline comparison. *)

val topological_parts : partitioning -> t list
(** Partitions in a topological order of the quotient graph: partitions
    with no producer first, then those whose producers are all placed, and
    so on; list order within each round. *)

val quotient_edges : partitioning -> (string * string) list
(** Ordered dependence edges between partition labels, deduplicated and
    sorted. *)

(** {1 Edit primitives}

    Interactive edits from the paper's workflow (section 2.2): each returns a
    freshly validated partitioning, or [Error reason] when the edit would
    violate an invariant (coverage, disjointness, non-empty partitions,
    acyclic quotient graph).  Edits never raise. *)

val move_op :
  partitioning -> op:Graph.node_id -> to_:string -> (partitioning, string) result
(** Move one operation into partition [to_].  Rejected when the operation is
    unknown, already in [to_], or moving it would empty its partition. *)

val merge_parts :
  partitioning -> src:string -> dst:string -> (partitioning, string) result
(** Absorb every operation of [src] into [dst]; [src] disappears and [dst]
    keeps its label.  Rejected when either label is unknown or [src = dst]. *)

val split_part :
  partitioning ->
  label:string ->
  members:Graph.node_id list ->
  new_label:string ->
  (partitioning, string) result
(** Move [members] of partition [label] into a fresh partition [new_label].
    Rejected when a member is outside [label], [new_label] collides with an
    existing label, or either side of the split would be empty. *)

(** {1 Automatic generation} *)

val whole : Graph.t -> partitioning
(** Single partition holding every operation. *)

val by_levels : Graph.t -> k:int -> partitioning
(** Horizontal cuts: splits the ASAP level structure into [k] contiguous
    groups of approximately equal operation count (the paper's experiments
    use exactly this: "a horizontal cut from the middle of the graph", and
    "three partitions of approximately equal size").
    @raise Invalid_argument when [k < 1] or [k] exceeds the level count. *)

val pp : Format.formatter -> partitioning -> unit
