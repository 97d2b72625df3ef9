(* Multilevel BAD-driven partition refinement.  See the interface for the
   overall shape; implementation notes:

   - Clusters are the move granularity.  The finest level has one cluster
     per operation (communities collapse into one cluster); coarser
     levels come from heavy-edge matching on transfer bits, restricted to
     cluster pairs in the same part, so every level's clustering refines
     the current partitioning and the seed split *is* the coarsest
     initial state.

   - Contracting a same-part cluster pair (A, B) keeps the cluster
     quotient acyclic iff there is no alternate path between them of
     length >= 2.  Such a path can never leave the part: the partition
     quotient over parts is acyclic, so a path that leaves a part cannot
     re-enter it.  The reachability check below therefore only walks
     same-part clusters.  Merges are applied on a live union-find (not
     checked against a frozen snapshot) because two individually-safe
     contractions can jointly create a cycle.

   - Candidate moves are evaluated speculatively, in waves: each probe
     applies one [Session.edit] to a private session fork and runs it
     there, so a wave's probes score concurrently on the domain pool while
     the main session stays untouched (rejection costs nothing to undo).
     Every prediction a probe computes lands in the shared
     content-addressed cache, so committing a wave's winner re-serves them
     as hits.  This is what makes thousands of probes cheap and the
     refinement cache hit rate high by construction.

   - Rounds are deterministic by construction: candidate order, wave
     boundaries (1 doubling to 8 on non-improving waves, reset per pass)
     and the memo of probe scores depend only on the current state and the
     seed, never on the job count; the committed move is the
     lowest-indexed improving candidate of its wave.  jobs-1 and jobs-N
     refinements are therefore byte-identical apart from timing and
     cache-counter fields. *)

module G = Chop_dfg.Graph
module P = Chop_dfg.Partition
module S = Chop.Explore.Session
module IS = Set.Make (Int)

type constraints = {
  pins : (G.node_id * string) list;
  communities : G.node_id list list;
}

let no_constraints = { pins = []; communities = [] }

exception Invalid_constraints of string

let bad fmt = Printf.ksprintf (fun m -> raise (Invalid_constraints m)) fmt

type outcome = {
  spec : Chop.Spec.t;
  report : Chop.Explore.report;
  seed_report : Chop.Explore.report;
  levels : int;
  coarse_clusters : int;
  moves_tried : int;
  moves_accepted : int;
  impl_flips : int;
  speculative_runs : int;
  batch_rounds : int;
  spec_wall_seconds : float;
  spec_busy_seconds : float;
  jobs : int;
  cache_hits : int;
  cache_misses : int;
  cache_structural_hits : int;
  interrupted : bool;
  wall_seconds : float;
}

(* {1 Small graph helpers} *)

let topo_pos g =
  let t = Hashtbl.create 64 in
  List.iteri (fun i id -> Hashtbl.replace t id i)
    (Chop_dfg.Analysis.topological_order g);
  t

let is_comp g id =
  G.mem g id && Chop_dfg.Op.is_computational (G.node g id).G.op

let ancestors g ~from =
  let seen = Hashtbl.create 64 in
  let rec go id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      List.iter go (G.preds g id)
    end
  in
  List.iter go from;
  seen

let part_label_of spec op =
  (P.part_of spec.Chop.Spec.partitioning op).P.label

let order_members tpos members =
  List.sort
    (fun a b -> compare (Hashtbl.find tpos a) (Hashtbl.find tpos b))
    members

(* {1 Constraint normalization}

   Pins are checked against the graph and the partition labels;
   communities are transitively closed over sandwiched operations and
   merged when they overlap (to a fixpoint, since closing a union can
   reveal new overlaps). *)

let normalize_constraints g spec { pins; communities } =
  let labels =
    List.map (fun p -> p.P.label) spec.Chop.Spec.partitioning.P.parts
  in
  List.iter
    (fun (op, lbl) ->
      if not (is_comp g op) then bad "pin: unknown operation %d" op;
      if not (List.mem lbl labels) then bad "pin: unknown partition %s" lbl)
    pins;
  let pin_tbl = Hashtbl.create 16 in
  List.iter
    (fun (op, lbl) ->
      match Hashtbl.find_opt pin_tbl op with
      | Some l when not (String.equal l lbl) ->
          bad "pin: operation %d pinned to both %s and %s" op l lbl
      | _ -> Hashtbl.replace pin_tbl op lbl)
    pins;
  List.iter
    (List.iter (fun op ->
         if not (is_comp g op) then
           bad "together: unknown operation %d" op))
    communities;
  let close ms =
    let desc = Chop_dfg.Analysis.reachable g ~from:ms in
    let anc = ancestors g ~from:ms in
    List.sort_uniq compare
      (ms @ List.filter (fun x -> is_comp g x && Hashtbl.mem anc x) desc)
  in
  let rec merge_all acc = function
    | [] -> List.rev acc
    | c :: rest ->
        let overlaps, disjoint =
          List.partition (fun c' -> List.exists (fun x -> List.mem x c') c) rest
        in
        if overlaps = [] then merge_all (c :: acc) rest
        else
          merge_all acc
            (List.sort_uniq compare (List.concat (c :: overlaps)) :: disjoint)
  in
  let rec fixpoint cs guard =
    let next = merge_all [] (List.map close cs) in
    if guard = 0 || next = cs then next else fixpoint next (guard - 1)
  in
  let communities =
    fixpoint
      (List.filter (fun c -> c <> []) communities)
      (1 + List.length communities)
  in
  (* every (closed) community must agree on a pinned target, if any *)
  List.iter
    (fun ms ->
      let targets =
        List.sort_uniq String.compare (List.filter_map (Hashtbl.find_opt pin_tbl) ms)
      in
      match targets with
      | [] | [ _ ] -> ()
      | l ->
          bad "together: community pinned to multiple partitions (%s)"
            (String.concat ", " l))
    communities;
  (pin_tbl, communities)

(* {1 Session move plumbing} *)

let move_edits members ~to_ =
  List.map (fun op -> Chop.Spec.Move_op { op; to_partition = to_ }) members

(* Apply "move these members to [to_]" as one all-or-nothing edit.  The
   member order matters for transient validation (moving against the
   dependence direction can create a momentary quotient cycle), so try
   sinks-first then sources-first.  Returns the order that applied. *)
let try_move session tpos members ~to_ =
  let topo = order_members tpos members in
  let rtopo = List.rev topo in
  match S.edit session (move_edits rtopo ~to_) with
  | Ok _ -> Ok rtopo
  | Error e1 -> (
      match S.edit session (move_edits topo ~to_) with
      | Ok _ -> Ok topo
      | Error _ ->
          Error (Format.asprintf "%a" Chop.Spec.pp_update_error e1))

(* Undoing a just-applied move list in reverse order retraces the chain of
   valid intermediate specs, so it can never fail. *)
let revert session ~applied ~to_ =
  let edits =
    List.rev_map (fun op -> Chop.Spec.Move_op { op; to_partition = to_ }) applied
  in
  match S.edit session edits with
  | Ok _ -> ()
  | Error e ->
      invalid_arg
        (Format.asprintf "Chop_auto: revert failed (internal): %a"
           Chop.Spec.pp_update_error e)

(* Establish pins and community co-location on the seed partitioning.
   Groups may depend on each other's moves for transient validity, so
   retry in passes until quiescent. *)
let apply_fixups session tpos groups =
  let pending = ref groups in
  let last_err = ref "unsatisfiable" in
  let progress = ref true in
  while !pending <> [] && !progress do
    progress := false;
    pending :=
      List.filter
        (fun (members, target) ->
          let need =
            List.filter
              (fun op -> part_label_of (S.spec session) op <> target)
              members
          in
          if need = [] then false
          else
            match try_move session tpos need ~to_:target with
            | Ok _ ->
                progress := true;
                false
            | Error e ->
                last_err := e;
                true)
        !pending
  done;
  if !pending <> [] then
    bad "constraints cannot be established on the seed partitioning: %s"
      !last_err

(* {1 Clusters and coarsening} *)

type cluster = { members : G.node_id list; pinned : bool }

(* A refinement action is either the classic cluster move between
   partitions or — when the spec declares software processors — rebinding
   a partition to a different implementation model.  Flips carry the
   current model so a commit can be reverted symmetrically. *)
type action =
  | Move_cluster of cluster * string * string  (* cluster, from part, to part *)
  | Flip_impl of string * string * string  (* partition, from model, to model *)

let action_order = function
  | Move_cluster (c, _, q) -> (0, List.hd c.members, "", q)
  | Flip_impl (p, _, m) -> (1, 0, p, m)

let base_clusters tpos ~pin_tbl ~communities ops =
  let in_comm = Hashtbl.create 64 in
  List.iter (List.iter (fun op -> Hashtbl.replace in_comm op ())) communities;
  let comm =
    List.map
      (fun ms ->
        {
          members = order_members tpos ms;
          pinned = List.exists (Hashtbl.mem pin_tbl) ms;
        })
      communities
  in
  let singles =
    List.filter_map
      (fun op ->
        if Hashtbl.mem in_comm op then None
        else Some { members = [ op ]; pinned = Hashtbl.mem pin_tbl op })
      ops
  in
  List.sort
    (fun a b ->
      compare
        (Hashtbl.find tpos (List.hd a.members))
        (Hashtbl.find tpos (List.hd b.members)))
    (comm @ singles)

(* One heavy-edge matching round; returns the coarser clustering (possibly
   unchanged when nothing can contract). *)
let coarsen_round g tpos part_of_op ~seed clusters =
  let clusters = Array.of_list clusters in
  let n = Array.length clusters in
  let cl_of = Hashtbl.create (4 * n) in
  Array.iteri
    (fun i c -> List.iter (fun op -> Hashtbl.replace cl_of op i) c.members)
    clusters;
  let part = Array.map (fun c -> part_of_op (List.hd c.members)) clusters in
  let parent = Array.init n (fun i -> i) in
  let rec find i =
    if parent.(i) = i then i
    else begin
      let r = find parent.(i) in
      parent.(i) <- r;
      r
    end
  in
  let succs = Array.make n IS.empty in
  let weight = Hashtbl.create (4 * n) in
  let seen = Hashtbl.create (4 * n) in
  List.iter
    (fun (u, v) ->
      match (Hashtbl.find_opt cl_of u, Hashtbl.find_opt cl_of v) with
      | Some cu, Some cv when cu <> cv ->
          succs.(cu) <- IS.add cv succs.(cu);
          if String.equal part.(cu) part.(cv) then begin
            (* transfer bits: each produced value counts once per
               consuming cluster, matching [Partition.flows] *)
            if not (Hashtbl.mem seen (u, cv)) then begin
              Hashtbl.replace seen (u, cv) ();
              let key = (min cu cv, max cu cv) in
              Hashtbl.replace weight key
                ((G.node g u).G.width
                + Option.value ~default:0 (Hashtbl.find_opt weight key))
            end
          end
      | _ -> ())
    (G.edges g);
  let cands =
    Hashtbl.fold
      (fun (a, b) w acc -> (w, Hashtbl.hash (seed, a, b), a, b) :: acc)
      weight []
    |> List.sort (fun (w1, t1, a1, b1) (w2, t2, a2, b2) ->
           if w1 <> w2 then compare w2 w1
           else if t1 <> t2 then compare t1 t2
           else compare (a1, b1) (a2, b2))
  in
  (* path src ~> dst of length >= 2 over same-part representatives (a
     cross-part excursion can never come back — see the module header) *)
  let reaches_indirect src dst =
    let p = part.(src) in
    let visited = Hashtbl.create 64 in
    let rec go i =
      if i = dst then true
      else if Hashtbl.mem visited i then false
      else begin
        Hashtbl.replace visited i ();
        IS.exists
          (fun j ->
            let j = find j in
            String.equal part.(j) p && go j)
          succs.(i)
      end
    in
    IS.exists
      (fun j ->
        let j = find j in
        j <> dst && String.equal part.(j) p && go j)
      succs.(src)
  in
  let members_acc = Array.map (fun c -> c.members) clusters in
  let pinned_acc = Array.map (fun c -> c.pinned) clusters in
  let matched = Array.make n false in
  List.iter
    (fun (_, _, a, b) ->
      let ra = find a and rb = find b in
      if
        ra <> rb
        && (not matched.(ra))
        && (not matched.(rb))
        && (not (reaches_indirect ra rb))
        && not (reaches_indirect rb ra)
      then begin
        let union = IS.union succs.(ra) succs.(rb) in
        parent.(rb) <- ra;
        succs.(ra) <- IS.filter (fun j -> find j <> ra) union;
        members_acc.(ra) <- members_acc.(ra) @ members_acc.(rb);
        pinned_acc.(ra) <- pinned_acc.(ra) || pinned_acc.(rb);
        matched.(ra) <- true
      end)
    cands;
  let out = ref [] in
  for i = n - 1 downto 0 do
    if find i = i then
      out :=
        { members = order_members tpos members_acc.(i); pinned = pinned_acc.(i) }
        :: !out
  done;
  List.sort
    (fun a b ->
      compare
        (Hashtbl.find tpos (List.hd a.members))
        (Hashtbl.find tpos (List.hd b.members)))
    !out

(* Coarsest level first, finest (the base clustering) last. *)
let build_hierarchy g tpos part_of_op ~seed ~coarse_target base =
  let levels = ref [ base ] in
  let cur = ref base in
  let round = ref 0 in
  let continue_ = ref (List.length base > coarse_target) in
  while !continue_ do
    incr round;
    let next = coarsen_round g tpos part_of_op ~seed:(seed + !round) !cur in
    if List.length next >= List.length !cur then continue_ := false
    else begin
      levels := next :: !levels;
      cur := next;
      if List.length next <= coarse_target then continue_ := false
    end
  done;
  !levels

(* {1 Scoring}

   Total order on exploration reports: feasibility beats everything; among
   feasible states the best design's performance, then likely area, then
   delay, then cut bits; among infeasible states the number of
   BAD-feasible per-partition implementations (more means closer to
   integrating), then cut bits. *)

type score = {
  feas : bool;
  perf : float;
  area : float;
  delay : float;
  badf : int;
  cut : int;
}

let score_of spec (r : Chop.Explore.report) =
  let cut = P.cut_bits_total spec.Chop.Spec.partitioning in
  let badf =
    List.fold_left
      (fun a (b : Chop.Explore.bad_stats) -> a + b.feasible_predictions)
      0 r.bad
  in
  match r.outcome.Chop.Search.feasible with
  | best :: _ ->
      let o = Chop.Integration.objectives best in
      { feas = true; perf = o.(0); delay = o.(1); area = o.(2); badf; cut }
  | [] ->
      { feas = false; perf = infinity; delay = infinity; area = infinity;
        badf; cut }

let better a b =
  if a.feas <> b.feas then a.feas
  else if a.feas then
    (a.perf, a.area, a.delay, a.cut) < (b.perf, b.area, b.delay, b.cut)
  else (-a.badf, a.cut) < (-b.badf, b.cut)

(* {1 Refinement} *)

(* Cut connectivity of a cluster towards every part: bits of values
   crossing between the cluster and each part, counting each produced
   value once per consuming side — the FM gain numerator.  Pure ordering
   heuristic; acceptance is decided by the BAD score. *)
let connectivity g spec c =
  let in_c = Hashtbl.create 16 in
  List.iter (fun op -> Hashtbl.replace in_c op ()) c.members;
  let conn = Hashtbl.create 8 in
  let bump lbl w =
    Hashtbl.replace conn lbl (w + Option.value ~default:0 (Hashtbl.find_opt conn lbl))
  in
  let seen_out = Hashtbl.create 32 in
  let seen_in = Hashtbl.create 32 in
  List.iter
    (fun u ->
      List.iter
        (fun v ->
          if is_comp g v && not (Hashtbl.mem in_c v) then begin
            let lbl = part_label_of spec v in
            if not (Hashtbl.mem seen_out (u, lbl)) then begin
              Hashtbl.replace seen_out (u, lbl) ();
              bump lbl (G.node g u).G.width
            end
          end)
        (G.succs g u);
      List.iter
        (fun p ->
          if is_comp g p && (not (Hashtbl.mem in_c p)) && not (Hashtbl.mem seen_in p)
          then begin
            Hashtbl.replace seen_in p ();
            bump (part_label_of spec p) (G.node g p).G.width
          end)
        (G.preds g u))
    c.members;
  conn

(* Largest speculative wave.  Constant — the wave schedule must not depend
   on the job count, or jobs-1 and jobs-N would diverge. *)
let wave_max = 8

let rec take n = function
  | x :: rest when n > 0 ->
      let wave, rest = take (n - 1) rest in
      (x :: wave, rest)
  | l -> ([], l)

let refine ?(seed = 1) ?(constraints = no_constraints) ?(max_moves = 1024)
    ?time_limit_s ?coarse_target ?(interrupt = fun () -> false)
    session =
  let t0 = Unix.gettimeofday () in
  let spec0 = S.spec session in
  let g = spec0.Chop.Spec.graph in
  let tpos = topo_pos g in
  let pin_tbl, communities = normalize_constraints g spec0 constraints in
  (* constraint fix-up on the seed partitioning *)
  let fixup_groups =
    List.map
      (fun ms ->
        let target =
          match List.filter_map (Hashtbl.find_opt pin_tbl) ms with
          | t :: _ -> t
          | [] ->
              (* plurality of current parts, ties to the lexicographically
                 first label — deterministic *)
              let counts = Hashtbl.create 8 in
              List.iter
                (fun op ->
                  let l = part_label_of spec0 op in
                  Hashtbl.replace counts l
                    (1 + Option.value ~default:0 (Hashtbl.find_opt counts l)))
                ms;
              Hashtbl.fold (fun l c acc -> (c, l) :: acc) counts []
              |> List.sort (fun (c1, l1) (c2, l2) ->
                     if c1 <> c2 then compare c2 c1 else String.compare l1 l2)
              |> List.hd |> snd
        in
        (ms, target))
      communities
    @ Hashtbl.fold
        (fun op lbl acc ->
          if List.exists (fun ms -> List.mem op ms) communities then acc
          else ([ op ], lbl) :: acc)
        pin_tbl []
  in
  apply_fixups session tpos fixup_groups;
  (* seed evaluation: the only run with no fallback state, so only the
     caller's interrupt can cancel it (and Cancelled propagates) *)
  let seed_report = S.run_interruptible ~interrupt session in
  let part_of_op op = part_label_of (S.spec session) op in
  let ops =
    List.map (fun (n : G.node) -> n.G.id) (G.operations g)
  in
  let part_count = List.length spec0.Chop.Spec.partitioning.P.parts in
  let coarse_target =
    (* absent or <= 0 = automatic: a couple of movable clusters per part
       at the coarsest level — small enough that realistic graphs
       actually coarsen (a fixed large default used to mean the hierarchy
       was always a single level) *)
    match coarse_target with
    | Some c when c > 0 -> c
    | _ -> max (2 * part_count) 8
  in
  let base = base_clusters tpos ~pin_tbl ~communities ops in
  let hierarchy =
    build_hierarchy g tpos part_of_op ~seed ~coarse_target base
  in
  let levels = List.length hierarchy in
  let coarse_clusters = List.length (List.hd hierarchy) in
  let tried = ref 0 and accepted = ref 0 and flips = ref 0 in
  let spec_runs = ref 0 and rounds = ref 0 in
  let spec_wall = ref 0. and spec_busy = ref 0. in
  let hits = ref 0 and misses = ref 0 in
  let interrupted = ref false in
  let stopped = ref false in
  let timed_out () =
    match time_limit_s with
    | Some l -> Unix.gettimeofday () -. t0 > l
    | None -> false
  in
  let stop () = interrupt () || timed_out () || !tried >= max_moves in
  let cur_report = ref seed_report in
  let cur_score = ref (score_of (S.spec session) seed_report) in
  let candidates level_idx clusters =
    let spec = S.spec session in
    let part_sizes = Hashtbl.create 8 in
    List.iter
      (fun (p : P.t) ->
        Hashtbl.replace part_sizes p.P.label (List.length p.P.members))
      spec.Chop.Spec.partitioning.P.parts
    |> ignore;
    let labels =
      List.map (fun (p : P.t) -> p.P.label) spec.Chop.Spec.partitioning.P.parts
      |> List.sort String.compare
    in
    let moves =
      List.concat_map
        (fun c ->
          if c.pinned then []
          else
            let from = part_label_of spec (List.hd c.members) in
            if Hashtbl.find part_sizes from <= List.length c.members then []
            else
              let conn = connectivity g spec c in
              let home = Option.value ~default:0 (Hashtbl.find_opt conn from) in
              List.filter_map
                (fun q ->
                  if String.equal q from then None
                  else
                    let gain =
                      Option.value ~default:0 (Hashtbl.find_opt conn q) - home
                    in
                    Some
                      ( gain,
                        Hashtbl.hash (seed, level_idx, List.hd c.members, q),
                        Move_cluster (c, from, q) ))
                labels)
        clusters
    in
    (* implementation-model flips: only generated when the spec declares
       processors, so hardware-only refinement is byte-identical to the
       pre-model code path *)
    let flips =
      if spec.Chop.Spec.processors = [] then []
      else
        let models =
          "hw"
          :: List.map
               (fun p -> p.Chop_model_sw.Processor.pname)
               spec.Chop.Spec.processors
        in
        List.concat_map
          (fun lbl ->
            let cur = Chop.Spec.impl_of_partition spec lbl in
            List.filter_map
              (fun m ->
                if String.equal m cur then None
                else
                  Some
                    ( 0,
                      Hashtbl.hash (seed, level_idx, lbl, m, "impl"),
                      Flip_impl (lbl, cur, m) ))
              models)
          labels
    in
    moves @ flips
    |> List.sort (fun (g1, t1, a1) (g2, t2, a2) ->
           if g1 <> g2 then compare g2 g1
           else if t1 <> t2 then compare t1 t2
           else compare (action_order a1) (action_order a2))
  in
  (* moves applied since the last best state (kicks, most recent first);
     rolled back at the end unless a later acceptance redeems them *)
  let undo = ref [] in
  let record_stats (r : Chop.Explore.report) =
    let m = r.Chop.Explore.metrics in
    hits := !hits + m.Chop.Explore.Metrics.cache_hits;
    misses := !misses + m.Chop.Explore.Metrics.cache_misses
  in
  (* Memo of probe scores, keyed on the encoding of the full partition
     assignment the move would produce, compared whole on every lookup.
     Sound because only the partitioning changes during refinement —
     graph, chips, clock and criteria are fixed — so the assignment alone
     determines the state.
     A memo hit skips the speculative run entirely; legality of the move
     from the *current* state is still path-dependent, so a commit
     re-applies the edit and deterministically skips a stale entry. *)
  let memo : (string, score) Hashtbl.t = Hashtbl.create 512 in
  let assignment_key action =
    let spec = S.spec session in
    let b = Buffer.create 512 in
    let in_m = Hashtbl.create 16 in
    let moved_to =
      match action with
      | Move_cluster (c, _, q) ->
          List.iter (fun op -> Hashtbl.replace in_m op ()) c.members;
          q
      | Flip_impl _ -> ""
    in
    List.iter
      (fun op ->
        Buffer.add_string b (string_of_int op);
        Buffer.add_char b ':';
        Buffer.add_string b
          (if Hashtbl.mem in_m op then moved_to else part_label_of spec op);
        Buffer.add_char b ';')
      ops;
    (* model bindings join the key only when flips are in play, so the
       hardware-only memo behaves exactly as before *)
    if spec.Chop.Spec.processors <> [] then
      List.iter
        (fun (p : P.t) ->
          let m =
            match action with
            | Flip_impl (lbl, _, to_) when String.equal lbl p.P.label -> to_
            | _ -> Chop.Spec.impl_of_partition spec p.P.label
          in
          Buffer.add_string b p.P.label;
          Buffer.add_char b '=';
          Buffer.add_string b m;
          Buffer.add_char b '|')
        (List.sort
           (fun (a : P.t) (b : P.t) -> String.compare a.P.label b.P.label)
           spec.Chop.Spec.partitioning.P.parts);
    Buffer.contents b
  in
  (* Apply an action to a session (the main one or a speculative fork).
     Returns the revert token a cancelled or failed commit needs. *)
  let apply_action sess = function
    | Move_cluster (c, from, q) -> (
        match try_move sess tpos c.members ~to_:q with
        | Ok applied -> Ok (`Moved (applied, from))
        | Error _ as e -> e)
    | Flip_impl (p, from, m) -> (
        match S.edit sess [ Chop.Spec.Set_impl { partition = p; impl = m } ] with
        | Ok _ -> Ok (`Flipped (p, from))
        | Error e ->
            Error (Format.asprintf "%a" Chop.Spec.pp_update_error e))
  in
  let revert_action sess = function
    | `Moved (applied, from) -> revert sess ~applied ~to_:from
    | `Flipped (p, from) -> (
        match
          S.edit sess [ Chop.Spec.Set_impl { partition = p; impl = from } ]
        with
        | Ok _ -> ()
        | Error e ->
            invalid_arg
              (Format.asprintf "Chop_auto: impl revert failed (internal): %a"
                 Chop.Spec.pp_update_error e))
  in
  (* One refinement pass: scan the gain-ordered candidates in waves of
     speculative probes, evaluated concurrently on the session's pool via
     {!S.speculate}.  Waves start at 1 and double up to [wave_max] while
     nothing improves, so early accepts stay cheap and the converged tail
     gets full batches.  The whole wave is always evaluated — even at
     jobs = 1 — so counters and commits cannot depend on the job count. *)
  let rec scan_waves ~on_accept wave_size cands =
    if cands <> [] && not !stopped then begin
      if stop () then begin
        interrupted := true;
        stopped := true
      end
      else begin
        let wave, rest = take wave_size cands in
        (* consult the memo sequentially, before any probe dispatches *)
        let entries =
          List.map
            (fun ((_, _, action) as cand) ->
              let key = assignment_key action in
              (cand, key, ref (Hashtbl.find_opt memo key)))
            wave
        in
        let unknown =
          List.filter (fun (_, _, v) -> Option.is_none !v) entries
        in
        let aborted = ref false in
        if unknown <> [] then begin
          let tasks =
            Array.of_list
              (List.map
                 (fun ((_, _, action), _, _) ->
                   fun probe ->
                     match apply_action probe action with
                     | Error _ ->
                         `Illegal (* cycle / would empty the part *)
                     | Ok _ -> (
                         match S.run_interruptible ~interrupt probe with
                         | exception Chop.Explore.Cancelled -> `Aborted
                         | r -> `Scored (score_of (S.spec probe) r, r)))
                 unknown)
          in
          let tw0 = Unix.gettimeofday () in
          let results, pstats = S.speculate session tasks in
          spec_wall := !spec_wall +. (Unix.gettimeofday () -. tw0);
          spec_busy :=
            !spec_busy
            +. Array.fold_left ( +. ) 0. pstats.Chop_util.Pool.worker_busy;
          incr rounds;
          List.iteri
            (fun i (_, key, verdict) ->
              match results.(i) with
              | `Illegal -> ()
              | `Aborted -> aborted := true
              | `Scored (sc, r) ->
                  incr spec_runs;
                  record_stats r;
                  Hashtbl.replace memo key sc;
                  verdict := Some sc)
            unknown
        end;
        if !aborted then begin
          interrupted := true;
          stopped := true
        end
        else begin
          (* every candidate that produced a score counts as a tried move,
             whether a probe ran or the memo served it *)
          let scored =
            List.filter_map
              (fun ((_, _, action), _, v) ->
                Option.map (fun sc -> (action, sc)) !v)
              entries
          in
          tried := !tried + List.length scored;
          (* commit the lowest-indexed improving candidate that re-applies
             cleanly on the main session; its run is served from the cache
             the probe just populated *)
          let rec commit = function
            | [] -> `No_improvement
            | (action, sc) :: more when better sc !cur_score -> (
                match apply_action session action with
                | Error _ -> commit more (* stale memo: illegal from here *)
                | Ok tok -> (
                    match S.run_interruptible ~interrupt session with
                    | exception Chop.Explore.Cancelled ->
                        revert_action session tok;
                        `Cancelled
                    | r ->
                        record_stats r;
                        let sc' = score_of (S.spec session) r in
                        if better sc' !cur_score then begin
                          cur_score := sc';
                          cur_report := r;
                          undo := [];
                          incr accepted;
                          (match action with
                          | Flip_impl _ -> incr flips
                          | Move_cluster _ -> ());
                          `Committed
                        end
                        else begin
                          (* defensive: a probe score replays identically,
                             so this arm should be unreachable *)
                          revert_action session tok;
                          commit more
                        end))
            | _ :: more -> commit more
          in
          match commit scored with
          | `Committed -> on_accept ()
          | `Cancelled ->
              interrupted := true;
              stopped := true
          | `No_improvement ->
              scan_waves ~on_accept (min wave_max (2 * wave_size)) rest
        end
      end
    end
  in
  (* Plateau escape while infeasible: the score (-badf, cut) often cannot
     improve one move at a time — an overloaded partition may need to
     shed several operations before BAD finds anything feasible in it.
     A kick forces the best-gain legal move out of the partition with the
     fewest BAD-feasible predictions without requiring improvement; the
     move stays on [undo] until a later acceptance beats the best state,
     else it is rolled back at the end. *)
  let kick cands =
    let weakest =
      List.fold_left
        (fun acc (b : Chop.Explore.bad_stats) ->
          match acc with
          | Some (best : Chop.Explore.bad_stats)
            when best.feasible_predictions <= b.feasible_predictions ->
              acc
          | _ -> Some b)
        None !cur_report.Chop.Explore.bad
      |> Option.map (fun (b : Chop.Explore.bad_stats) -> b.label)
    in
    match weakest with
    | None -> false
    | Some weak ->
        let rec try_cands = function
          | [] -> false
          | (_, _, Move_cluster (c, from, q)) :: rest
            when String.equal from weak -> (
              match try_move session tpos c.members ~to_:q with
              | Error _ -> try_cands rest
              | Ok applied -> (
                  incr tried;
                  match S.run_interruptible ~interrupt session with
                  | exception Chop.Explore.Cancelled ->
                      revert session ~applied ~to_:from;
                      interrupted := true;
                      stopped := true;
                      false
                  | r ->
                      record_stats r;
                      let sc = score_of (S.spec session) r in
                      if better sc !cur_score then begin
                        cur_score := sc;
                        cur_report := r;
                        undo := [];
                        incr accepted
                      end
                      else undo := (applied, from) :: !undo;
                      true))
          | _ :: rest -> try_cands rest
        in
        try_cands cands
  in
  List.iteri
    (fun level_idx clusters ->
      if not !stopped then begin
        let kicks_left = ref (2 * part_count) in
        let improved = ref true in
        while !improved && not !stopped do
          improved := false;
          if stop () then begin
            interrupted := true;
            stopped := true
          end
          else begin
            (* a committed move rebuilds the candidates: parts (and every
               gain) changed *)
            scan_waves
              ~on_accept:(fun () -> improved := true)
              1
              (candidates level_idx clusters);
            if
              (not !improved) && (not !stopped)
              && (not !cur_score.feas)
              && !kicks_left > 0
              && not (stop ())
            then begin
              decr kicks_left;
              if kick (candidates level_idx clusters) then improved := true
              else kicks_left := 0
            end
          end
        done
      end)
    hierarchy;
  (* roll back kicks that never led to a better state *)
  List.iter (fun (applied, from) -> revert session ~applied ~to_:from) !undo;
  {
    spec = S.spec session;
    report = !cur_report;
    seed_report;
    levels;
    coarse_clusters;
    moves_tried = !tried;
    moves_accepted = !accepted;
    impl_flips = !flips;
    speculative_runs = !spec_runs;
    batch_rounds = !rounds;
    spec_wall_seconds = !spec_wall;
    spec_busy_seconds = !spec_busy;
    jobs = S.jobs session;
    cache_hits = !hits;
    cache_misses = !misses;
    cache_structural_hits = 0;
    interrupted = !interrupted;
    wall_seconds = Unix.gettimeofday () -. t0;
  }

let run ?seed ?constraints ?max_moves ?time_limit_s ?coarse_target ?interrupt
    ?pool ~config spec =
  Chop.Explore.with_engine ?pool config spec (fun session ->
      refine ?seed ?constraints ?max_moves ?time_limit_s ?coarse_target
        ?interrupt session)
