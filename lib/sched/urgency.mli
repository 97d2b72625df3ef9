(** Urgency scheduling of system-level tasks.

    Once partition and data-transfer delays are known, CHOP performs an
    urgency scheduling "to confirm feasibility of sharing the data pins of
    chips as well as to keep memory accesses to each memory block feasible
    while reaching the minimum overall system delay"; the urgency measure is
    based on the actual critical-path delays of tasks, as in Sehwa [8]
    (paper, section 2.5).

    Resources are renewable with integer capacity (a chip's shared data
    pins, a memory block's ports); a task holds its demanded units for its
    whole duration. *)

type resource = { rname : string; capacity : int }

type task = {
  tname : string;
  duration : int;  (** main-clock cycles; >= 0 *)
  demands : (string * int) list;  (** resource name -> units held *)
  deps : string list;  (** task names that must finish first *)
}

type placed = {
  task : task;
  ready : int;  (** step all dependencies had finished *)
  start_step : int;  (** step the task acquired its resources *)
  finish_step : int;  (** [start_step + duration] *)
}

type result = {
  placed : placed list;  (** in start order *)
  makespan : int;
}

exception Unschedulable of string

val run : resources:resource list -> task list -> result
(** [fst (schedule (prepare ~resources tasks) ~durations ~demands)], with
    each task's own duration and demands.
    @raise Unschedulable when a task demands more units than a resource's
    capacity, references an unknown resource or dependency, or the
    dependency graph is cyclic.
    @raise Invalid_argument on negative durations/demands or duplicate
    names. *)

(** {1 Prepared schedules}

    A combination search schedules the same tasks over the same resources
    thousands of times, with only the durations and demands changing.
    {!prepare} does once what does not read them. *)

type prepared
(** Tasks and resources under dense indexes (list order), with their
    dependency arrays, the checks on names, dependencies and cycles, and
    the order urgencies are summed in.  Immutable. *)

val prepare : resources:resource list -> task list -> prepared
(** Reads only the names and dependencies of the tasks.  Never raises: a
    duplicate name, an unknown dependency or a cycle is raised by every
    {!schedule}, at the point {!run} raises it. *)

val resource_index : prepared -> string -> int
(** The index of the named resource, its position in [resources].
    @raise Not_found for an unknown name. *)

val schedule :
  prepared ->
  durations:int array ->
  demands:(int * int) list array ->
  result * int array
(** [schedule p ~durations ~demands] schedules task [i] (the [i]th task
    given to {!prepare}) with duration [durations.(i)], holding
    [(resource index, units)] for each pair of [demands.(i)].  Returns
    what {!run} returns for the same tasks, the placed tasks carrying
    these durations and demands, and each task's {!wait_of} by index.
    @raise Unschedulable and [Invalid_argument] as {!run} does, with the
    same messages, and [Invalid_argument] when an array's length is not
    the number of tasks or a resource index is out of range. *)

val wait_of : result -> string -> int
(** [start - ready] of the named task: how long its input data sat in a
    buffer before the task could acquire pins/ports.
    @raise Not_found for an unknown task. *)

val critical_path : result -> string list
(** One chain of task names realizing the makespan, source to sink. *)
