(** Acyclic data-flow graphs — the behavioral specification input to CHOP.

    Each node produces at most one value whose bit width is the node's
    [width].  Edges carry that value to consumer nodes.  The graph must be
    acyclic (paper, section 2.3: inner loops are unrolled before
    partitioning; see {!Transform.unroll}). *)

type node_id = int

type node = private {
  id : node_id;
  op : Op.t;
  width : Chop_util.Units.bits;  (** width of the value the node produces *)
  name : string;
}

type t

(** {1 Construction} *)

type builder

val builder : ?name:string -> unit -> builder

val add_node :
  ?name:string -> builder -> op:Op.t -> width:Chop_util.Units.bits -> node_id
(** Adds a node and returns its id.  Widths must be positive. *)

val add_edge : builder -> src:node_id -> dst:node_id -> unit
(** Connects the value produced by [src] to an input of [dst].  Duplicate
    edges are allowed (an operation may use the same value twice). *)

exception Invalid_graph of string

val build : builder -> t
(** Freezes the builder.  @raise Invalid_graph when the graph is cyclic, a
    node's in-degree violates its operation arity, or an [Input]/[Const]
    node has predecessors. *)

(** {1 Accessors} *)

val name : t -> string
val size : t -> int
(** Total number of nodes, boundary nodes included. *)

val nodes : t -> node list
val node : t -> node_id -> node
(** @raise Not_found for an unknown id. *)

val mem : t -> node_id -> bool
val succs : t -> node_id -> node_id list
val preds : t -> node_id -> node_id list
val edges : t -> (node_id * node_id) list
val inputs : t -> node list
val outputs : t -> node list
val operations : t -> node list
(** Computational nodes only (see {!Op.is_computational}). *)

val op_count : t -> int
val op_profile : t -> (string * int) list
(** Operation count per functional class, sorted by class name. *)

val memory_blocks : t -> string list
(** Names of memory blocks referenced by memory operations, sorted,
    deduplicated. *)

val total_input_bits : t -> Chop_util.Units.bits
val total_output_bits : t -> Chop_util.Units.bits

val signature : t -> string
(** An id-ordered digest of the graph: each node's id, operation and width
    in topological order, then the {!edges} list (each source's successors
    in insertion order).  Node and graph names are excluded, and so is the
    order of each node's predecessor list.  Two graphs built by the same
    construction sequence (e.g. two {!induced} extractions of the same
    partition) share a signature; the same structure numbered differently
    does not.  The prediction cache keys on it ([Chop.Pred_cache.Key.raw]). *)

(** {1 Derived graphs} *)

val induced :
  t ->
  name:string ->
  node_id list ->
  t * (node_id * node_id) list * (node_id * node_id) list
(** [induced g ~name keep] extracts the subgraph induced by the
    computational nodes [keep].  Values produced outside [keep] and consumed
    inside become fresh [Input] nodes — except constants, which are cloned
    locally (coefficients do not travel between chips); values produced
    inside and consumed outside (or by an original [Output]) become fresh
    [Output] nodes.
    Returns [(sub, in_map, out_map)] where [in_map] maps original producer
    ids to the fresh input ids and [out_map] maps original producer ids to
    the fresh output ids.  @raise Invalid_argument if [keep] contains a
    non-computational or unknown node. *)

val pp : Format.formatter -> t -> unit
