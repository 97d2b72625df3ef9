(* The serving layer's one state table.  See session_table.mli for the
   eviction contract and the races that [prune]'s re-check of [last_used]
   after try_lock and [lock]'s re-check of membership close. *)

type key = Engine of string | Session of string

type answer = {
  revision : int;
  op : Protocol.op;
  params : Protocol.params;
  result : string;
  verdict : string;
}

type slot = {
  session : Chop.Explore.Session.t;
  smu : Mutex.t;
  mutable last_used : float;
  open_params : Protocol.params;
  mutable writer : string;
  mutable observers : string list;
  mutable answer : answer option;
}

type t = {
  slots : (key, slot) Hashtbl.t;
  mu : Mutex.t;
  mutable seq : int;
  ttl_s : float;
  cap : int;
}

let create ~ttl_s ~max_sessions =
  if ttl_s <= 0. then invalid_arg "Session_table.create: ttl_s must be positive";
  if max_sessions < 1 then
    invalid_arg "Session_table.create: max_sessions must be >= 1";
  {
    slots = Hashtbl.create 16;
    mu = Mutex.create ();
    seq = 0;
    ttl_s;
    cap = max_sessions;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let counts t =
  locked t (fun () ->
      Hashtbl.fold
        (fun key _ (engines, sessions) ->
          match key with
          | Engine _ -> (engines + 1, sessions)
          | Session _ -> (engines, sessions + 1))
        t.slots (0, 0))

let find t key = locked t (fun () -> Hashtbl.find_opt t.slots key)

let lock t key slot =
  Mutex.lock slot.smu;
  match find t key with
  | Some s when s == slot -> true
  | _ ->
      Mutex.unlock slot.smu;
      false

let with_slot t key f =
  match find t key with
  | Some slot when lock t key slot ->
      Some (Fun.protect ~finally:(fun () -> Mutex.unlock slot.smu) (fun () -> f slot))
  | _ -> None

(* Caller-provided ids of our own shape advance the allocator, so a
   gateway-assigned "s7" never collides with a later local "s7". *)
let observe_id t = function
  | Session sid when String.length sid > 1 && sid.[0] = 's' -> (
      match int_of_string_opt (String.sub sid 1 (String.length sid - 1)) with
      | Some n when n > t.seq -> t.seq <- n
      | _ -> ())
  | _ -> ()

let add t key slot =
  locked t (fun () ->
      (not (Hashtbl.mem t.slots key))
      && begin
        observe_id t key;
        Hashtbl.add t.slots key slot;
        true
      end)

(* no live id is past [seq]: [add] observes every caller-provided one *)
let fresh_id t =
  locked t (fun () ->
      t.seq <- t.seq + 1;
      Printf.sprintf "s%d" t.seq)

let remove t key = locked t (fun () -> Hashtbl.remove t.slots key)

let sessions t =
  locked t (fun () ->
      Hashtbl.fold
        (fun key s acc ->
          match key with Session sid -> (sid, s) :: acc | Engine _ -> acc)
        t.slots [])

(* LRU order: engines before sessions, least recently used first *)
let lru_rank (key, slot) =
  ((match key with Engine _ -> 0 | Session _ -> 1), slot.last_used)

let prune t ~now ~room_for ~on_evict =
  Mutex.lock t.mu;
  let victims = ref [] in
  let grab ~recheck reason key slot =
    if slot.observers <> [] then false
    else if Mutex.try_lock slot.smu then
      (* the race fix: [last_used] was sampled before the lock; a run or
         edit that held [smu] while we sampled has refreshed it by now,
         so expiry must be re-judged under the mutex *)
      if recheck && now -. slot.last_used <= t.ttl_s then begin
        Mutex.unlock slot.smu;
        false
      end
      else begin
        Hashtbl.remove t.slots key;
        victims := (key, slot, reason) :: !victims;
        true
      end
    else false
  in
  Hashtbl.iter
    (fun key slot ->
      if now -. slot.last_used > t.ttl_s then
        ignore (grab ~recheck:true "ttl" key slot))
    (Hashtbl.copy t.slots);
  let excess () = Hashtbl.length t.slots - (t.cap - room_for) in
  if excess () > 0 then begin
    let by_age =
      Hashtbl.fold (fun key s acc -> (key, s) :: acc) t.slots []
      |> List.sort (fun a b -> compare (lru_rank a) (lru_rank b))
    in
    let rec evict n = function
      | [] -> ()
      | _ when n <= 0 -> ()
      | (key, slot) :: tl ->
          evict (if grab ~recheck:false "lru" key slot then n - 1 else n) tl
    in
    evict (excess ()) by_age
  end;
  Mutex.unlock t.mu;
  List.iter
    (fun (key, slot, reason) ->
      on_evict ~reason key slot;
      Mutex.unlock slot.smu)
    (List.rev !victims)

let drain t f =
  let all =
    locked t (fun () ->
        let all = Hashtbl.fold (fun key s acc -> (key, s) :: acc) t.slots [] in
        Hashtbl.reset t.slots;
        all)
  in
  List.iter (fun (key, slot) -> f key slot) all
