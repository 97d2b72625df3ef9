(** The server's one state table: every warm engine and interactive
    session under one TTL and one LRU cap, with id allocation,
    writer/observer membership and each slot's stored answer.  A slot's
    [smu] serialises engine work on it; the table's own lock only guards
    membership, so a sweep never blocks behind a long run.

    {b The drain race.}  The eviction sweep used to decide expiry from a
    sampled [last_used] and only then try the session mutex — so an edit
    admitted before the sample but still in flight (typical while the
    scheduler drains a backlog) would refresh [last_used] too late, and
    the sweep would evict a session the client had just edited.  {!prune}
    therefore re-reads [last_used] {e after} [Mutex.try_lock] succeeds
    and releases the slot when the session turned out to be fresh.
    {!lock} closes the same race from the op's side.

    Observed sessions — those with at least one attached read-only
    client — are never evicted, by TTL or by LRU; detaching the last
    observer makes the session ordinary again. *)

type key = Engine of string  (** an {!Ops.engine_key} *) | Session of string

type answer = {
  revision : int;  (** the session's revision when it ran *)
  op : Protocol.op;
  params : Protocol.params;
  result : string;  (** the printed [result] object *)
  verdict : string;  (** the access-log verdict *)
}

type slot = {
  session : Chop.Explore.Session.t;
  smu : Mutex.t;  (** serialises engine work on this slot *)
  mutable last_used : float;
  open_params : Protocol.params;
      (** a session's rendering parameters, fixed at open
          (keep_all/csv/verbose); an engine's first request *)
  mutable writer : string;
      (** the client that opened the session ("" = anonymous); the only
          client allowed to mutate it *)
  mutable observers : string list;  (** attached read-only clients *)
  mutable answer : answer option;  (** the last completed answer *)
}

type t

val create : ttl_s:float -> max_sessions:int -> t
(** @raise Invalid_argument on a non-positive TTL or capacity. *)

val counts : t -> int * int  (** live engines, live sessions *)

val find : t -> key -> slot option

val lock : t -> key -> slot -> bool
(** Takes the slot's mutex, then checks that the key still names the
    slot: one that left the table since {!find} counts as absent
    ([false], the mutex released again). *)

val with_slot : t -> key -> (slot -> 'a) -> 'a option
(** {!find}, {!lock}, then [f] under the mutex; [None]: no live slot. *)

val add : t -> key -> slot -> bool
(** Registers a slot under a key; [false] when the key is already live.
    Caller-provided session ids of the server's own [s<n>] shape advance
    the allocator past [n], so {!fresh_id} never reuses them. *)

val fresh_id : t -> string
(** The next free [s<n>] session id (allocation only — the caller
    {!add}s). *)

val remove : t -> key -> unit

val sessions : t -> (string * slot) list  (** by id, unordered; no engine *)

val prune :
  t ->
  now:float ->
  room_for:int ->
  on_evict:(reason:string -> key -> slot -> unit) ->
  unit
(** One eviction sweep: slots idle past the TTL go first (expiry
    re-checked under the slot mutex — see the drain race above), then
    least-recently-used ones until [room_for] new slots fit, engines
    before sessions: an engine rebuilds byte-identically from its key, a
    session may not rebuild at all.  Busy slots (mutex held) and
    observed sessions are skipped, so the cap is best-effort under
    concurrency.  [on_evict] runs, in eviction order, with the slot's
    mutex held and already removed from the table — the place to
    snapshot and close. *)

val drain : t -> (key -> slot -> unit) -> unit
(** Empties the table, calling the callback on every slot (shutdown:
    snapshot and close everything, ignoring observers and business). *)
