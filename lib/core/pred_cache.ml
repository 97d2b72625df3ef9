type entry = {
  raw : Chop_bad.Prediction.t list;
  feasible_count : int;
  kept : Chop_bad.Prediction.t list;
}

module Key = struct
  type identity =
    | Hardware of Chop_bad.Predictor.config
    | Software of Chop_model_sw.Processor.t * Chop_tech.Clocking.t

  type raw = { signature : string; model : identity }

  type full = {
    raw : raw;
    chip : Chop_tech.Chip.t;
    criteria : Chop_bad.Feasibility.criteria;
  }

  (* Exactly what the model's predictor reads: the hardware arm reads the
     whole config, the software arm only the processor and the clocks.
     The two constructors keep the models' entries apart. *)
  let raw ~sub ~cfg ~model =
    {
      signature = Chop_dfg.Graph.signature sub;
      model =
        (match model with
        | Model.Hardware -> Hardware cfg
        | Model.Software p -> Software (p, cfg.Chop_bad.Predictor.clocks));
    }

  let full ~raw ~chip ~criteria = { raw; chip; criteria }
end

(* Both layers hash on the signature alone and compare whole keys with
   [compare], which treats the floats of a config, chip or criteria record
   as [Hashtbl.hash] does (nan equal to itself) and returns at once on a
   physically shared config. *)
module Raw_tbl = Hashtbl.Make (struct
  type t = Key.raw

  let equal a b = compare a b = 0
  let hash (k : t) = Hashtbl.hash k.Key.signature
end)

module Full_tbl = Hashtbl.Make (struct
  type t = Key.full

  let equal a b = compare a b = 0
  let hash (k : t) = Hashtbl.hash k.Key.raw.Key.signature
end)

(* Each layer pairs the stored value with a last-use stamp drawn from the
   cache-wide clock; eviction drops the oldest-stamped entries across both
   layers until the total count fits the capacity again. *)
type counters = { hits : int; misses : int; evictions : int }
type 'a slot = { value : 'a; stamp : int ref }

type t = {
  lock : Mutex.t;
  raw_tbl : Chop_bad.Prediction.t list slot Raw_tbl.t;
  full_tbl : entry slot Full_tbl.t;
  mutable clock : int;
  mutable capacity : int option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let default_shared_capacity = 1024

let create ?capacity () =
  { lock = Mutex.create (); raw_tbl = Raw_tbl.create 64;
    full_tbl = Full_tbl.create 64; clock = 0; capacity; hits = 0; misses = 0;
    evictions = 0 }

let shared = create ~capacity:default_shared_capacity ()

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let clear t =
  locked t (fun () ->
      Raw_tbl.reset t.raw_tbl;
      Full_tbl.reset t.full_tbl)

let length t =
  locked t (fun () -> Raw_tbl.length t.raw_tbl + Full_tbl.length t.full_tbl)

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* caller holds the lock *)
let evict_to t limit =
  let total () = Raw_tbl.length t.raw_tbl + Full_tbl.length t.full_tbl in
  if total () > limit then begin
    let stamps = ref [] in
    Raw_tbl.iter (fun k s -> stamps := (!(s.stamp), `Raw k) :: !stamps) t.raw_tbl;
    Full_tbl.iter (fun k s -> stamps := (!(s.stamp), `Full k) :: !stamps)
      t.full_tbl;
    let oldest_first =
      List.sort (fun (a, _) (b, _) -> Int.compare a b) !stamps
    in
    let excess = total () - limit in
    List.iteri
      (fun i (_, k) ->
        if i < excess then begin
          t.evictions <- t.evictions + 1;
          match k with
          | `Raw k -> Raw_tbl.remove t.raw_tbl k
          | `Full k -> Full_tbl.remove t.full_tbl k
        end)
      oldest_first
  end

let enforce_capacity t =
  match t.capacity with None -> () | Some c -> evict_to t (max 0 c)

let set_capacity t capacity =
  locked t (fun () ->
      t.capacity <- capacity;
      enforce_capacity t)

let capacity t = locked t (fun () -> t.capacity)

let counters t =
  locked t (fun () -> { hits = t.hits; misses = t.misses; evictions = t.evictions })

(* caller holds the lock *)
let record_hit t slot =
  slot.stamp := tick t;
  t.hits <- t.hits + 1

let find_raw t k =
  locked t (fun () ->
      match Raw_tbl.find_opt t.raw_tbl k with
      | None ->
          t.misses <- t.misses + 1;
          None
      | Some slot ->
          record_hit t slot;
          Some slot.value)

let add_raw t k v =
  locked t (fun () ->
      Raw_tbl.replace t.raw_tbl k { value = v; stamp = ref (tick t) };
      enforce_capacity t)

let find_full t (k : Key.full) =
  locked t (fun () ->
      match Full_tbl.find_opt t.full_tbl k with
      | None ->
          t.misses <- t.misses + 1;
          None
      | Some slot ->
          record_hit t slot;
          (* a full-layer hit is also a use of the raw enumeration behind
             it: refresh the parent's age so derived lookups (sensitivity
             sweeps, criteria edits) don't let their own raw working set
             age out *)
          (match Raw_tbl.find_opt t.raw_tbl k.Key.raw with
          | Some parent -> parent.stamp := tick t
          | None -> ());
          Some slot.value)

let add_full t k v =
  locked t (fun () ->
      Full_tbl.replace t.full_tbl k { value = v; stamp = ref (tick t) };
      enforce_capacity t)
