(** Functional evaluation of data-flow graphs.

    Executes a DFG on concrete integer values, masking every result to the
    producing node's bit width.  Used to validate behavioral transformations
    and partitionings: splitting a specification must not change its
    input/output function. *)

type memory_model = {
  read : string -> int;  (** value returned by a read of the named block *)
  mutable writes : (string * int) list;
      (** accumulated [(block, value)] writes, oldest first *)
}

val constant_memory : int -> memory_model
(** Every read returns the given value; writes are recorded. *)

exception Eval_error of string

val run :
  ?inputs:(string * int) list ->
  ?consts:(string * int) list ->
  ?memory:memory_model ->
  Graph.t ->
  (string * int) list
(** [run ~inputs ~consts g] evaluates [g] and returns the primary outputs
    as [(output node name, value)], in graph order.  [inputs] binds input
    nodes by name (missing inputs default to 0); [consts] binds constant
    nodes by name (default 1).  [memory] defaults to {!constant_memory} 0.

    Operation semantics (all results masked to the node width):
    [Add]/[Sub]/[Mult]/[Div] are two's-complement integer arithmetic
    ([Div] by zero yields 0); [Compare] is [a < b] as 0/1; [Logic] is
    bitwise and; [Shift] is left shift by the second operand modulo the
    width (or by 1 when unary); [Select (c, a, b)] yields [a] when
    [c <> 0].
    @raise Eval_error when a bound name does not exist in the graph. *)

val run_partitioned :
  ?inputs:(string * int) list ->
  ?consts:(string * int) list ->
  ?memory:memory_model ->
  Partition.partitioning ->
  (string * int) list
(** Evaluates a partitioned specification the way the multi-chip system
    would run it: each partition's induced subgraph is evaluated in
    quotient-topological order, cut values flowing between subgraphs as
    the data-transfer modules would carry them.  The result must equal
    {!run} on the whole graph — partitioning preserves semantics (this is
    asserted by the property tests). *)

val equivalent :
  ?trials:int -> ?seed:int -> Graph.t -> Graph.t -> bool
(** Randomized input/output equivalence: both graphs must expose the same
    input and output names (order-insensitive) and produce identical
    outputs on [trials] (default 25) pseudo-random stimulus vectors.  Each
    vector also draws one value per constant name; each graph is bound
    only the constant names it has. *)
