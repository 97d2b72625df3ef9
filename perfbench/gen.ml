(* The seeded generators behind the three workloads.  Every draw comes
   from a [Random.State] made from the workload seed plus a stream tag,
   so the same seed gives the same op sequence on every host; the program
   under test only ever sees the generated requests. *)

let rng ~seed tags = Random.State.make (Array.append [| seed |] tags)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ------------------------------------------------------------------ *)
(* auto-cold *)

type auto_row = {
  bench : string;
  k : int;
  perf : float;
  delay : float;
  multicycle : bool;
}

(* The six BENCH_auto.json points plus the pcm_pwm HW/SW triangle. *)
let auto_rows =
  [|
    { bench = "ar"; k = 3; perf = 30000.; delay = 30000.; multicycle = false };
    { bench = "ewf"; k = 3; perf = 30000.; delay = 30000.; multicycle = true };
    { bench = "fir8"; k = 2; perf = 6000.; delay = 30000.; multicycle = false };
    { bench = "fir16"; k = 2; perf = 30000.; delay = 30000.; multicycle = false };
    { bench = "diffeq"; k = 2; perf = 6000.; delay = 30000.; multicycle = false };
    { bench = "dct8"; k = 4; perf = 30000.; delay = 30000.; multicycle = false };
    { bench = "pcm_pwm"; k = 2; perf = 30000.; delay = 30000.; multicycle = true };
  |]

(* A row's refinement work moves by up to 2x with the tie-break seed
   (fir16: 1.2-2.4 s), so drawing tie-break seeds from the workload seed
   made the work per run depend on the seed.  Every run instead uses the
   same tie-break seed; the workload seed orders the ops.  With two seeds
   per row, the 14 ops' median fell between the 7th and the 8th in cost
   order (~470 and ~620 ms) and moved with whichever of them ran faster;
   with one, it lies among the samples of ar and pcm_pwm, 4th and 5th in
   cost order and under 10% apart. *)
let tie_seed = 1

(* The warm-up that ends every set-up: each row under a second per op
   (all but fir16 and dct8) once, in table order: about 1.4 s of the
   workload's own ops, the same for every seed, so that set-up can run
   several times per run. *)
let auto_warmup =
  List.filter_map
    (fun i ->
      if List.mem auto_rows.(i).bench [ "fir16"; "dct8" ] then None
      else Some (i, tie_seed))
    (List.init (Array.length auto_rows) Fun.id)

(* Round [r] runs every row once, in an order drawn from the workload
   seed. *)
let auto_round ~seed r =
  let order =
    shuffle (rng ~seed [| 0xa0; r |]) (Array.init (Array.length auto_rows) Fun.id)
  in
  Array.to_list (Array.map (fun i -> (i, tie_seed)) order)

(* ------------------------------------------------------------------ *)
(* session-serve: a random walk of edits over a mirror spec *)

(* The two sessions: ar, and ewf multi-cycle with relaxed constraints
   so its runs search real feasible sets; three partitions each. *)
let session_params =
  [|
    { Chop_server.Protocol.default_params with benchmark = "ar"; partitions = 3 };
    {
      Chop_server.Protocol.default_params with
      benchmark = "ewf";
      partitions = 3;
      multicycle = true;
      perf = 20000.;
      delay = 100000.;
    };
  |]

type step =
  | Edit of { line : string; dirty : Chop.Spec.dirty }
  | Undo of Chop.Spec.dirty
  | Redo of Chop.Spec.dirty
  | Run

type walk = {
  wrng : Random.State.t;
  mutable spec : Chop.Spec.t;
  mutable undo : Chop.Spec.t list;  (** most recent first *)
  mutable redo : Chop.Spec.t list;
  mutable run_next : bool;
  mutable fresh : int;  (** suffix of the next split's label *)
  mutable budget : int;  (** edit steps left in the current episode *)
}

(* The server's sessions keep this many undo steps (Explore.Session's
   default); the mirror must bound its stack the same way. *)
let history = 32
let min_parts = 2
let max_parts = 4

let walk ~seed ~stream spec =
  {
    wrng = rng ~seed [| 0x5e; stream |];
    spec;
    undo = [];
    redo = [];
    run_next = false;
    fresh = 0;
    budget = 0;
  }

let parts spec = spec.Chop.Spec.partitioning.Chop_dfg.Partition.parts
let labels spec = List.map (fun p -> p.Chop_dfg.Partition.label) (parts spec)

let pick rng l = List.nth l (Random.State.int rng (List.length l))

(* A boundary move: an operation with a neighbour in another partition,
   moved into that neighbour's partition. *)
let move_candidate w =
  let pg = w.spec.Chop.Spec.partitioning in
  let g = pg.Chop_dfg.Partition.graph in
  let part_of n =
    match Chop_dfg.Partition.part_of pg n with
    | p -> Some p.Chop_dfg.Partition.label
    | exception Not_found -> None
  in
  let boundary =
    List.concat_map
      (fun p ->
        List.concat_map
          (fun n ->
            List.filter_map
              (fun m ->
                match part_of m with
                | Some l when l <> p.Chop_dfg.Partition.label -> Some (n, l)
                | _ -> None)
              (Chop_dfg.Graph.succs g n @ Chop_dfg.Graph.preds g n))
          p.Chop_dfg.Partition.members)
      (parts w.spec)
  in
  match boundary with
  | [] -> None
  | l ->
      let n, dst = pick w.wrng l in
      Some (Printf.sprintf "move %d %s" n dst)

let merge_candidate w =
  let ls = labels w.spec in
  if List.length ls <= min_parts then None
  else
    let src = pick w.wrng ls in
    let dst = pick w.wrng (List.filter (( <> ) src) ls) in
    Some (Printf.sprintf "merge %s %s" src dst)

(* Carves a prefix (by node id, i.e. construction order) out of a
   partition; a split that would make the partitions mutually dependent
   is rejected by the mirror and drawn again. *)
let split_candidate w =
  let big =
    List.filter
      (fun p -> List.length p.Chop_dfg.Partition.members >= 2)
      (parts w.spec)
  in
  if List.length (parts w.spec) >= max_parts || big = [] then None
  else
    let p = pick w.wrng big in
    let ms = p.Chop_dfg.Partition.members in
    let cut = 1 + Random.State.int w.wrng (List.length ms - 1) in
    let members = List.filteri (fun i _ -> i < cut) ms in
    Some
      (Printf.sprintf "split %s S%d %s" p.Chop_dfg.Partition.label w.fresh
         (String.concat "," (List.map string_of_int members)))

let criteria_candidate w =
  let perf = pick w.wrng [ 20000; 25000; 30000; 40000 ] in
  let delay = pick w.wrng [ 30000; 60000; 100000 ] in
  Some (Printf.sprintf "criteria %d %d" perf delay)

(* Applies [line] to the mirror when the server would accept it. *)
let try_edit w line =
  match Chop_server.Ops.parse_edit w.spec line with
  | Error _ -> None
  | Ok e -> (
      match Chop.Spec.update w.spec [ e ] with
      | Error _ -> None
      | Ok (spec', dirty) ->
          w.undo <- List.filteri (fun i _ -> i < history) (w.spec :: w.undo);
          w.redo <- [];
          w.spec <- spec';
          if String.starts_with ~prefix:"split " line then
            w.fresh <- w.fresh + 1;
          Some (Edit { line; dirty }))

let undo w =
  match w.undo with
  | [] -> None
  | prev :: rest ->
      let d = Chop.Spec.diff ~current:w.spec ~target:prev in
      w.undo <- rest;
      w.redo <- w.spec :: w.redo;
      w.spec <- prev;
      Some (Undo d)

let redo w =
  match w.redo with
  | [] -> None
  | next :: rest ->
      let d = Chop.Spec.diff ~current:w.spec ~target:next in
      w.redo <- rest;
      w.undo <- w.spec :: w.undo;
      w.spec <- next;
      Some (Redo d)

(* The walk runs in episodes: 4-16 edit steps from the session's
   opening spec, then undo steps back to it.  An unbounded walk drifted
   into regimes of larger or more numerous partitions that stayed for
   thousands of steps, so the cost per op depended on the seed; episodes
   make the work per op stationary.  An episode never pushes more than
   [history] undo entries, so unwinding always reaches the opening spec.

   Every edit-type step is followed by a [Run].  Within an episode the
   edit kinds are 50% boundary moves, 10% merges, 10% splits, 10%
   criteria changes, 12% undo and 8% redo; a draw that does not apply
   (nothing to undo, a merge at two partitions, an edit the mirror
   rejects) is drawn again. *)
let rec next w =
  if w.run_next then begin
    w.run_next <- false;
    Run
  end
  else if w.budget = 0 && w.undo <> [] then begin
    w.run_next <- true;
    Option.get (undo w)
  end
  else begin
    if w.budget = 0 then w.budget <- 4 + Random.State.int w.wrng 13;
    let x = Random.State.int w.wrng 100 in
    let step =
      if x < 12 then undo w
      else if x < 20 then redo w
      else
        let line =
          if x < 30 then merge_candidate w
          else if x < 40 then split_candidate w
          else if x < 50 then criteria_candidate w
          else move_candidate w
        in
        Option.bind line (try_edit w)
    in
    match step with
    | Some s ->
        w.run_next <- true;
        w.budget <- w.budget - 1;
        s
    | None -> next w
  end

(* ------------------------------------------------------------------ *)
(* explore-gateway: a fixed key set with skewed popularity *)

let gateway_benchmarks = [ "ar"; "ewf"; "fir16"; "fir8"; "diffeq"; "dct8"; "pcm_pwm" ]

(* (benchmark, k) pairs whose e/b keys run with keep-all: dumps of about
   1-200 KB.  Left out: ar k=3 and k=4, ewf k=4 and dct8 k=4, whose dumps
   run from 0.3 to 4.5 MB. *)
let keep_all_pairs =
  [ ("ar", 2); ("ewf", 3); ("fir16", 4); ("diffeq", 3); ("dct8", 2);
    ("dct8", 3); ("pcm_pwm", 2); ("pcm_pwm", 3); ("pcm_pwm", 4) ]

(* Multi-cycle with relaxed constraints, so the exhaustive heuristics
   find and integrate real feasible sets. *)
let gateway_keys =
  List.concat_map
    (fun bench ->
      List.concat_map
        (fun k ->
          List.map
            (fun h ->
              {
                Chop_server.Protocol.default_params with
                benchmark = bench;
                partitions = k;
                heuristic = h;
                multicycle = true;
                perf = 20000.;
                delay = 100000.;
                keep_all = h <> "i" && List.mem (bench, k) keep_all_pairs;
              })
            [ "i"; "e"; "b" ])
        [ 2; 3; 4 ])
    gateway_benchmarks
  |> Array.of_list

(* Popularity: key of rank r (1-based) appears max 1 (48 / r) times per
   deck.  The rank order is a fixed shuffle, the same for every workload
   seed: with seeded ranks a hot expensive key moved a run's mean cost
   several-fold between seeds.  Each connection deals its own decks, each
   a fresh seeded shuffle, so every full deck has exactly the target mix. *)
let deck_weights =
  let n = Array.length gateway_keys in
  let ranked = shuffle (rng ~seed:20240 [||]) (Array.init n Fun.id) in
  let w = Array.make n 0 in
  Array.iteri (fun r key -> w.(key) <- max 1 (48 / (r + 1))) ranked;
  w

let deck_base =
  Array.to_list deck_weights
  |> List.mapi (fun key w -> List.init w (fun _ -> key))
  |> List.concat |> Array.of_list

type dealer = { drng : Random.State.t; mutable deck : int array; mutable pos : int }

let dealer ~seed ~stream = { drng = rng ~seed [| 0x9a; stream |]; deck = [||]; pos = 0 }

(* Makes the next [deal] start a fresh deck. *)
let start_deck d = d.pos <- Array.length d.deck

let deal d =
  if d.pos >= Array.length d.deck then begin
    d.deck <- shuffle d.drng deck_base;
    d.pos <- 0
  end;
  let k = d.deck.(d.pos) in
  d.pos <- d.pos + 1;
  k
