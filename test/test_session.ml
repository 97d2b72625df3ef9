(* Tests for interactive sessions: the Spec edit language (validity,
   precise rejection, partitioning invariants under random edit
   sequences) and the incremental re-prediction contract — a session's
   run after edits is byte-identical to a cold exploration of the edited
   spec, and misses the prediction cache only for the partitions the
   edits dirtied. *)

open Chop
module Ops = Chop_server.Ops

let ar_spec ?(k = 3) () = Rig.experiment1 ~partitions:k ()

(* a run's prediction-cache counters *)
let hits r = r.Explore.metrics.Explore.Metrics.cache_hits
let misses r = r.Explore.metrics.Explore.Metrics.cache_misses

let ewf_spec ?(k = 3) () =
  let graph = Chop_dfg.Benchmarks.elliptic_wave_filter () in
  Rig.custom ~graph
    ~partitioning:(Chop_dfg.Partition.by_levels graph ~k)
    ~package:Chop_tech.Mosis.package_84
    ~clocks:
      (Chop_tech.Clocking.make ~main:300. ~datapath_ratio:1 ~transfer_ratio:1)
    ~style:(Chop_tech.Style.both Chop_tech.Style.Multi_cycle)
    ~criteria:(Chop_bad.Feasibility.criteria ~perf:20000. ~delay:20000. ())
    ()

let parts spec = spec.Spec.partitioning.Chop_dfg.Partition.parts
let labels spec = List.map (fun p -> p.Chop_dfg.Partition.label) (parts spec)

let all_members spec =
  List.concat_map (fun p -> p.Chop_dfg.Partition.members) (parts spec)
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Spec.update: validity and precise rejection *)

let update_ok spec edits =
  match Spec.update spec edits with
  | Ok r -> r
  | Error e -> Alcotest.failf "%a" Spec.pp_update_error e

let check_rejected ~at spec edits =
  match Spec.update spec edits with
  | Ok _ -> Alcotest.fail "edit list unexpectedly accepted"
  | Error e ->
      Alcotest.(check int) "rejected index" at e.Spec.index;
      Alcotest.(check bool) "reason non-empty" true
        (String.length e.Spec.reason > 0)

let test_merge_dirties_only_dst () =
  let spec = ewf_spec () in
  let _, dirty = update_ok spec [ Spec.Merge_parts { src = "P3"; dst = "P2" } ] in
  Alcotest.(check (list string)) "repredict" [ "P2" ] dirty.Spec.repredict;
  Alcotest.(check (list string)) "removed" [ "P3" ] dirty.Spec.removed;
  Alcotest.(check (list string)) "rederive" [] dirty.Spec.rederive

let test_move_dirties_both_ends () =
  let spec = ewf_spec () in
  (* P2's first (shallowest) member: its producers sit in P1, so pulling
     it down into P1 keeps the quotient graph acyclic *)
  let op =
    List.hd
      (Chop_dfg.Partition.find spec.Spec.partitioning "P2")
        .Chop_dfg.Partition.members
  in
  let _, dirty = update_ok spec [ Spec.Move_op { op; to_partition = "P1" } ] in
  Alcotest.(check (list string)) "repredict" [ "P1"; "P2" ]
    (List.sort compare dirty.Spec.repredict)

let test_criteria_rederives_all () =
  let spec = ewf_spec () in
  let _, dirty =
    update_ok spec
      [ Spec.Set_criteria (Chop_bad.Feasibility.criteria ~perf:1000. ~delay:1000. ()) ]
  in
  Alcotest.(check (list string)) "rederive" (labels spec)
    (List.sort compare dirty.Spec.rederive);
  Alcotest.(check (list string)) "repredict" [] dirty.Spec.repredict

let test_rejections_are_precise () =
  let spec = ewf_spec () in
  let good = Spec.Merge_parts { src = "P3"; dst = "P2" } in
  (* unknown operands, each rejected at its own position *)
  check_rejected ~at:0 spec [ Spec.Move_op { op = -1; to_partition = "P1" } ];
  check_rejected ~at:0 spec [ Spec.Merge_parts { src = "P9"; dst = "P1" } ];
  check_rejected ~at:0 spec [ Spec.Merge_parts { src = "P1"; dst = "P1" } ];
  check_rejected ~at:1 spec
    [ good; Spec.Reassign_chip { partition = "P1"; chip = "nochip" } ];
  check_rejected ~at:1 spec
    [ good; Spec.Rehost_memory { block = "noblock"; chip = "chip1" } ];
  (* the merge removed P3: referring to it afterwards is the error *)
  check_rejected ~at:1 spec
    [ good; Spec.Reassign_chip { partition = "P3"; chip = "chip1" } ];
  (* rejection leaves the input spec untouched and usable *)
  let spec', _ = update_ok spec [ good ] in
  Alcotest.(check (list string)) "input spec unchanged" [ "P1"; "P2"; "P3" ]
    (labels spec);
  Alcotest.(check (list string)) "merge applied to copy" [ "P1"; "P2" ]
    (labels spec')

let test_emptying_move_rejected () =
  let spec = ewf_spec () in
  (* merge everything into P1, then try to move a lone member out of a
     singleton partition produced by a split *)
  let p1_members = (Chop_dfg.Partition.find spec.Spec.partitioning "P1").Chop_dfg.Partition.members in
  let lone = List.hd p1_members in
  let spec', _ =
    update_ok spec
      [ Spec.Split_part { from_partition = "P1"; members = [ lone ]; new_label = "S" } ]
  in
  check_rejected ~at:0 spec' [ Spec.Move_op { op = lone; to_partition = "P2" } ]

(* ------------------------------------------------------------------ *)
(* Random edit sequences: invariants hold, rejection never raises *)

(* a tiny deterministic LCG so the derived edits depend only on the seed *)
let lcg seed = ref (seed land 0x3FFFFFFF)

let rand r n =
  r := ((!r * 1103515245) + 12345) land 0x3FFFFFFF;
  if n <= 0 then 0 else !r mod n

let pick r l = List.nth l (rand r (List.length l))

(* a random edit against the current spec: mostly well-formed, with a
   slice of deliberately invalid ones to exercise rejection mid-list *)
let gen_edit r spec =
  let ls = labels spec in
  let chips = List.map (fun c -> c.Spec.chip_name) spec.Spec.chips in
  match rand r 8 with
  | 0 ->
      let p = pick r (parts spec) in
      Spec.Move_op
        { op = pick r p.Chop_dfg.Partition.members; to_partition = pick r ls }
  | 1 -> Spec.Merge_parts { src = pick r ls; dst = pick r ls }
  | 2 ->
      let p = pick r (parts spec) in
      let n = List.length p.Chop_dfg.Partition.members in
      let members =
        List.filteri (fun i _ -> i < max 1 (n / 2)) p.Chop_dfg.Partition.members
      in
      Spec.Split_part
        { from_partition = p.Chop_dfg.Partition.label;
          members;
          new_label = Printf.sprintf "S%d" (rand r 1000) }
  | 3 -> Spec.Reassign_chip { partition = pick r ls; chip = pick r chips }
  | 4 ->
      Spec.Swap_package
        { chip = pick r chips;
          package =
            (if rand r 2 = 0 then Chop_tech.Mosis.package_64
             else Chop_tech.Mosis.package_84) }
  | 5 ->
      Spec.Set_criteria
        (Chop_bad.Feasibility.criteria
           ~perf:(float_of_int (10000 + rand r 30000))
           ~delay:(float_of_int (10000 + rand r 30000))
           ())
  | 6 ->
      Spec.Set_clocks
        (Chop_tech.Clocking.make ~main:300.
           ~datapath_ratio:(1 + rand r 9)
           ~transfer_ratio:1)
  | _ -> (
      (* deliberately invalid *)
      match rand r 3 with
      | 0 -> Spec.Move_op { op = 99999; to_partition = pick r ls }
      | 1 -> Spec.Merge_parts { src = "PX"; dst = pick r ls }
      | _ -> Spec.Reassign_chip { partition = pick r ls; chip = "nochip" })

let check_partitioning_invariants ~before spec =
  let pg = spec.Spec.partitioning in
  (* coverage: the edited partitioning owns exactly the nodes the original
     did, each exactly once (disjointness falls out of the equality) *)
  Alcotest.(check (list int)) "node coverage preserved" before (all_members spec);
  (* every partition non-empty, labels unique, assignment total *)
  List.iter
    (fun p ->
      Alcotest.(check bool) "partition non-empty" true
        (p.Chop_dfg.Partition.members <> []))
    pg.Chop_dfg.Partition.parts;
  let ls = labels spec in
  Alcotest.(check int) "labels unique" (List.length ls)
    (List.length (List.sort_uniq compare ls));
  List.iter
    (fun l ->
      Alcotest.(check bool) "partition assigned" true
        (List.mem_assoc l spec.Spec.assignment))
    ls

let random_edits_keep_invariants =
  QCheck.Test.make ~name:"random edit sequences preserve spec invariants"
    ~count:60
    QCheck.(pair (0 -- 10000) (1 -- 6))
    (fun (seed, len) ->
      let r = lcg seed in
      let spec0 = if seed mod 2 = 0 then ewf_spec () else ar_spec () in
      let before = all_members spec0 in
      let spec = ref spec0 in
      for _ = 1 to len do
        let edit = gen_edit r !spec in
        match Spec.update !spec [ edit ] with
        | Ok (spec', dirty) ->
            check_partitioning_invariants ~before spec';
            let live = labels spec' in
            List.iter
              (fun l ->
                Alcotest.(check bool) "repredict live" true (List.mem l live))
              dirty.Spec.repredict;
            List.iter
              (fun l ->
                Alcotest.(check bool) "rederive live and not repredicted" true
                  (List.mem l live && not (List.mem l dirty.Spec.repredict)))
              dirty.Spec.rederive;
            List.iter
              (fun l ->
                Alcotest.(check bool) "removed not live" true
                  (not (List.mem l live)))
              dirty.Spec.removed;
            spec := spec'
        | Error e ->
            (* precise, structured rejection: never an exception, the spec
               unchanged *)
            Alcotest.(check int) "error index" 0 e.Spec.index;
            Alcotest.(check bool) "reason non-empty" true
              (String.length e.Spec.reason > 0)
      done;
      true)

(* ------------------------------------------------------------------ *)
(* Incremental soundness: a session run after edits equals a cold run *)

let render spec report =
  Ops.render_explore spec ~keep_all:false ~csv:false ~verbose:false report

let cold_run ~heuristic spec =
  Explore.with_engine
    (Explore.Config.make ~heuristic ~cache:Explore.Config.Off ())
    spec Explore.Session.run

let session_matches_cold ~heuristic spec edits () =
  let config =
    Explore.Config.make ~heuristic
      ~cache:(Explore.Config.Custom (Pred_cache.create ()))
      ()
  in
  Explore.with_engine config spec (fun session ->
      let _cold_report = Explore.Session.run session in
      (match Explore.Session.edit session edits with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%a" Spec.pp_update_error e);
      let warm = Explore.Session.run session in
      let spec' = Explore.Session.spec session in
      let cold = cold_run ~heuristic spec' in
      Alcotest.(check string) "session run == cold run on edited spec"
        (render spec' cold) (render spec' warm))

let fixed_edits spec =
  (* merge the tail partition away, pull a boundary op down a partition
     (acyclic by construction: its producers live below it), retune *)
  let op =
    List.hd
      (Chop_dfg.Partition.find spec.Spec.partitioning "P2")
        .Chop_dfg.Partition.members
  in
  [
    Spec.Merge_parts { src = "P3"; dst = "P2" };
    Spec.Move_op { op; to_partition = "P1" };
    Spec.Set_criteria (Chop_bad.Feasibility.criteria ~perf:25000. ~delay:25000. ());
  ]

(* Incremental soundness across everything a session offers: after each
   step — an edit, an undo, a redo, a fork that edits and runs, or a
   state/restore round trip — the session's run equals a cold run of its
   spec.  Running after every step makes the next run serve the carried
   entry of every label the step did not dirty; a fork's run must leave
   its parent's next run unchanged. *)
let random_session_matches_cold =
  QCheck.Test.make
    ~name:"session runs match cold exploration across random edits" ~count:60
    QCheck.(pair (0 -- 10000) (1 -- 6))
    (fun (seed, len) ->
      let r = lcg seed in
      let spec0 = if seed mod 2 = 0 then ewf_spec () else ar_spec () in
      let config =
        Explore.Config.make
          ~cache:(Explore.Config.Custom (Pred_cache.create ()))
          ()
      in
      let run_matches_cold s =
        let spec = Explore.Session.spec s in
        String.equal
          (render spec (cold_run ~heuristic:Explore.Iterative spec))
          (render spec (Explore.Session.run s))
      in
      let edit_randomly s =
        ignore
          (Explore.Session.edit s [ gen_edit r (Explore.Session.spec s) ])
      in
      let session = ref (Explore.Session.create config spec0) in
      Fun.protect ~finally:(fun () -> Explore.Session.close !session)
      @@ fun () ->
      let ok = ref (run_matches_cold !session) in
      for _ = 1 to len do
        let s = !session in
        (match rand r 8 with
        | 0 -> ignore (Explore.Session.undo s)
        | 1 -> ignore (Explore.Session.redo s)
        | 2 ->
            let fork = Explore.Session.fork s in
            edit_randomly fork;
            ok := run_matches_cold fork && !ok
        | 3 ->
            session :=
              Explore.Session.restore config (Explore.Session.state s);
            Explore.Session.close s
        | _ -> edit_randomly s);
        ok := run_matches_cold !session && !ok
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Scoped re-prediction: misses == dirty partitions *)

let test_misses_equal_dirty () =
  let spec = ewf_spec () in
  let config =
    Explore.Config.make
      ~cache:(Explore.Config.Custom (Pred_cache.create ()))
      ()
  in
  Explore.with_engine config spec (fun session ->
      let cold = Explore.Session.run session in
      Alcotest.(check int) "cold accounts for every partition" 3
        (hits cold + misses cold);
      let dirty =
        match
          Explore.Session.edit session
            [ Spec.Merge_parts { src = "P3"; dst = "P2" } ]
        with
        | Ok d -> d
        | Error e -> Alcotest.failf "%a" Spec.pp_update_error e
      in
      Alcotest.(check (list string)) "single dirty partition" [ "P2" ]
        dirty.Spec.repredict;
      let warm = Explore.Session.run session in
      Alcotest.(check int) "misses == dirty partitions"
        (List.length dirty.Spec.repredict)
        (misses warm);
      Alcotest.(check int) "clean partitions hit" 1 (hits warm);
      (* a third run with no edits is all hits *)
      let idle = Explore.Session.run session in
      Alcotest.(check int) "idle re-run misses nothing" 0
        (misses idle))

let test_session_revision_and_pending () =
  let spec = ewf_spec () in
  Explore.with_engine Explore.Config.default spec (fun session ->
      Alcotest.(check int) "fresh revision" 0 (Explore.Session.revision session);
      Alcotest.(check (list string)) "everything pending initially"
        [ "P1"; "P2"; "P3" ]
        (List.sort compare (Explore.Session.pending_dirty session));
      ignore (Explore.Session.run session);
      Alcotest.(check (list string)) "run clears pending" []
        (Explore.Session.pending_dirty session);
      (match
         Explore.Session.edit session
           [ Spec.Merge_parts { src = "P3"; dst = "P2" } ]
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%a" Spec.pp_update_error e);
      Alcotest.(check int) "edit bumps revision" 1
        (Explore.Session.revision session);
      Alcotest.(check (list string)) "edit queues dirty" [ "P2" ]
        (Explore.Session.pending_dirty session))

(* ------------------------------------------------------------------ *)
(* Undo/redo: inverse laws on the report bytes, bounded history *)

let retune perf =
  Spec.Set_criteria (Chop_bad.Feasibility.criteria ~perf ~delay:perf ())

let test_history_bounded () =
  let session =
    Explore.Session.create ~history:2 Explore.Config.default (ar_spec ())
  in
  Fun.protect
    ~finally:(fun () -> Explore.Session.close session)
    (fun () ->
      List.iter
        (fun perf ->
          match Explore.Session.edit session [ retune perf ] with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%a" Spec.pp_update_error e)
        [ 21000.; 22000.; 23000. ];
      (* three edits, but the stack holds only the last two pre-edit specs *)
      Alcotest.(check int) "undo depth capped" 2
        (Explore.Session.undo_depth session);
      (match Explore.Session.undo session with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      Alcotest.(check int) "undo fills redo" 1
        (Explore.Session.redo_depth session);
      (match Explore.Session.undo session with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      (* the first edit's pre-state fell off the bounded stack *)
      (match Explore.Session.undo session with
      | Ok _ -> Alcotest.fail "undo past the history bound"
      | Error _ -> ());
      (* a fresh edit clears the redo stack *)
      (match Explore.Session.edit session [ retune 25000. ] with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%a" Spec.pp_update_error e);
      Alcotest.(check int) "edit clears redo" 0
        (Explore.Session.redo_depth session))

let test_undo_disabled () =
  let session =
    Explore.Session.create ~history:0 Explore.Config.default (ar_spec ())
  in
  Fun.protect
    ~finally:(fun () -> Explore.Session.close session)
    (fun () ->
      (match Explore.Session.edit session [ retune 21000. ] with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%a" Spec.pp_update_error e);
      Alcotest.(check int) "no history kept" 0
        (Explore.Session.undo_depth session);
      match Explore.Session.undo session with
      | Ok _ -> Alcotest.fail "undo with history disabled"
      | Error _ -> ())

(* undo∘edit = id and redo∘undo = edit, measured on the bytes a client
   sees: the rendered report of a run after the step *)
let undo_redo_inverse_laws =
  QCheck.Test.make ~name:"undo reverts the report bytes, redo replays them"
    ~count:6
    QCheck.(0 -- 10000)
    (fun seed ->
      let r = lcg seed in
      let spec0 = if seed mod 2 = 0 then ewf_spec () else ar_spec () in
      let config =
        Explore.Config.make
          ~cache:(Explore.Config.Custom (Pred_cache.create ()))
          ()
      in
      Explore.with_engine config spec0 (fun session ->
          let run () =
            let spec = Explore.Session.spec session in
            render spec (Explore.Session.run session)
          in
          let before = run () in
          (* find a random edit the spec accepts (gen_edit deliberately
             mixes in invalid ones); none in 30 draws ⇒ trivially pass *)
          let rec try_edit n =
            if n = 0 then None
            else
              let edit = gen_edit r (Explore.Session.spec session) in
              match Explore.Session.edit session [ edit ] with
              | Ok _ -> Some edit
              | Error _ -> try_edit (n - 1)
          in
          match try_edit 30 with
          | None -> true
          | Some _ ->
              let rev_after_edit = Explore.Session.revision session in
              let after = run () in
              (match Explore.Session.undo session with
              | Ok _ -> ()
              | Error e -> Alcotest.fail e);
              Alcotest.(check string) "undo∘edit = id on the report" before
                (run ());
              Alcotest.(check int) "undo advances the revision"
                (rev_after_edit + 1)
                (Explore.Session.revision session);
              (match Explore.Session.redo session with
              | Ok _ -> ()
              | Error e -> Alcotest.fail e);
              Alcotest.(check string) "redo replays the edit's report" after
                (run ());
              true))

(* ------------------------------------------------------------------ *)
(* Snapshot round-trip: a restored session is the session, byte for
   byte, and its first run does no raw prediction work *)

let snapshot_roundtrip_preserves_session =
  QCheck.Test.make
    ~name:"snapshot round-trip: byte-identical run, zero cache misses"
    ~count:6
    QCheck.(pair (0 -- 10000) (1 -- 3))
    (fun (seed, len) ->
      let r = lcg seed in
      let spec0 = if seed mod 2 = 0 then ewf_spec () else ar_spec () in
      (* one shared content-addressed cache, as the serving layer's
         process-wide store would be *)
      let cache = Pred_cache.create () in
      let config =
        Explore.Config.make ~cache:(Explore.Config.Custom cache) ()
      in
      let meta = [ ("open", "{\"op\":\"session/open\"}") ] in
      let session = Explore.Session.create config spec0 in
      let reference, snap =
        Fun.protect
          ~finally:(fun () -> Explore.Session.close session)
          (fun () ->
            ignore (Explore.Session.run session);
            for _ = 1 to len do
              ignore
                (Explore.Session.edit session
                   [ gen_edit r (Explore.Session.spec session) ])
            done;
            let spec = Explore.Session.spec session in
            let reference = render spec (Explore.Session.run session) in
            ( reference,
              Snapshot.of_state ~meta (Explore.Session.state session) ))
      in
      (* through the wire format and back *)
      let parsed = Snapshot.parse (Snapshot.print snap) in
      Alcotest.(check (list (pair string string))) "meta preserved" meta
        parsed.Snapshot.meta;
      Alcotest.(check int) "revision preserved" snap.Snapshot.revision
        parsed.Snapshot.revision;
      Alcotest.(check int) "undo chain preserved"
        (List.length snap.Snapshot.undo)
        (List.length parsed.Snapshot.undo);
      Alcotest.(check int) "redo chain preserved"
        (List.length snap.Snapshot.redo)
        (List.length parsed.Snapshot.redo);
      let restored =
        Explore.Session.restore config (Snapshot.to_state parsed)
      in
      Fun.protect
        ~finally:(fun () -> Explore.Session.close restored)
        (fun () ->
          let report = Explore.Session.run restored in
          (* parsing rebuilds every graph in its written construction
             order, so the raw keys come back unchanged: every partition
             hits the entries the live session left, none is recomputed *)
          Alcotest.(check int) "restored run misses nothing" 0
            (misses report);
          Alcotest.(check string)
            "restored run byte-identical to the live session's" reference
            (render (Explore.Session.spec restored) report);
          true))

(* ------------------------------------------------------------------ *)
(* Cache transparency: a warm shared cache answers as no cache at all *)

(* A spec over a paper benchmark or a random DAG, cut into k levels, in
   the single- or multi-cycle style, and the same spec over the graph's
   Transform.renumber twin. *)
let transparency_specs ~graph ~k ~multi ~seed =
  let graph =
    match graph with
    | 0 -> Chop_dfg.Benchmarks.ar_lattice_filter ()
    | 1 -> Chop_dfg.Benchmarks.elliptic_wave_filter ()
    | 2 -> Chop_dfg.Benchmarks.fir_filter ~taps:8 ()
    | 3 -> Chop_dfg.Benchmarks.diffeq ()
    | _ -> Chop_dfg.Benchmarks.random_dag ~ops:(8 + (seed mod 12)) ~seed ()
  in
  let spec graph =
    let k = min k (List.length (Chop_dfg.Analysis.levels graph)) in
    Rig.custom ~graph
      ~partitioning:(Chop_dfg.Partition.by_levels graph ~k)
      ~package:Chop_tech.Mosis.package_84
      ~clocks:
        (Chop_tech.Clocking.make ~main:300.
           ~datapath_ratio:(if multi then 1 else 10)
           ~transfer_ratio:1)
      ~style:
        (Chop_tech.Style.both
           (if multi then Chop_tech.Style.Multi_cycle
            else Chop_tech.Style.Single_cycle))
      ~criteria:(Chop_bad.Feasibility.criteria ~perf:25000. ~delay:25000. ())
      ()
  in
  (spec graph, spec (Chop_dfg.Transform.renumber ~seed:(seed + 1) graph))

(* A seeded walk over one session, rendering every report it produces:
   after each step (an edit, an undo, a redo, a fork that edits and runs,
   a speculate batch of two probes, or a snapshot round trip through the
   wire format) the session runs.  The walk depends only on the spec and
   the seed, so it repeats exactly under another cache scope. *)
let transparency_walk ~config ~seed ~len spec0 =
  let r = lcg seed in
  let out = ref [] in
  let run s =
    out :=
      render (Explore.Session.spec s) (Explore.Session.run s) :: !out
  in
  let edit s e = ignore (Explore.Session.edit s [ e ]) in
  let session = ref (Explore.Session.create config spec0) in
  run !session;
  for _ = 1 to len do
    let s = !session in
    (match rand r 7 with
    | 0 | 1 -> edit s (gen_edit r (Explore.Session.spec s))
    | 2 -> ignore (Explore.Session.undo s)
    | 3 -> ignore (Explore.Session.redo s)
    | 4 ->
        let f = Explore.Session.fork s in
        edit f (gen_edit r (Explore.Session.spec f));
        run f;
        Explore.Session.close f
    | 5 ->
        (* drawn here, in order: the probes run concurrently *)
        let edits = Array.init 2 (fun _ -> gen_edit r (Explore.Session.spec s)) in
        let reports, _ =
          Explore.Session.speculate s
            (Array.map
               (fun e f ->
                 edit f e;
                 render (Explore.Session.spec f) (Explore.Session.run f))
               edits)
        in
        Array.iter (fun text -> out := text :: !out) reports
    | _ ->
        let snap =
          Snapshot.parse
            (Snapshot.print (Snapshot.of_state (Explore.Session.state s)))
        in
        Explore.Session.close s;
        session := Explore.Session.restore config (Snapshot.to_state snap));
    run !session
  done;
  Explore.Session.close !session;
  List.rev !out

(* Two sessions, one on a spec and one on its renumbered twin, share one
   cache: each walk, and the spec's walk again after the twin's, renders
   exactly as the same walk with the cache off.  The twin is keyed by its
   own numbering; an entry served across the two would show here. *)
let cache_on_equals_cache_off =
  QCheck.Test.make ~name:"cache on equals cache off across constructions"
    ~count:40
    QCheck.(quad (0 -- 4) (2 -- 4) bool (0 -- 10000))
    (fun (graph, k, multi, seed) ->
      let spec, twin = transparency_specs ~graph ~k ~multi ~seed in
      let len = 2 + (seed mod 3) in
      let shared =
        Explore.Config.make ~jobs:1
          ~cache:(Explore.Config.Custom (Pred_cache.create ()))
          ()
      in
      let off = Explore.Config.make ~jobs:1 ~cache:Explore.Config.Off () in
      let walk config spec = transparency_walk ~config ~seed ~len spec in
      let on_spec = walk shared spec in
      let on_twin = walk shared twin in
      let on_spec_again = walk shared spec in
      let off_spec = walk off spec in
      Alcotest.(check (list string)) "spec: cache on = cache off" off_spec on_spec;
      Alcotest.(check (list string)) "twin: cache on = cache off"
        (walk off twin) on_twin;
      Alcotest.(check (list string)) "spec after the twin: cache on = cache off"
        off_spec on_spec_again;
      true)

(* ------------------------------------------------------------------ *)
(* Implementation models: the edit-language seam, per-model cache
   identity and snapshot forward-compatibility *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let cpu_big =
  Chop_model_sw.Processor.make ~name:"cpu" ~issue_slots:2 ~cycle_ns:300.
    ~code_bytes_per_op:4 ~data_bytes_per_value:2 ~memory_budget_bytes:65536.
    ~bus_bits:16

let hwsw_spec ?(impls = []) graph =
  Rig.custom ~graph
    ~partitioning:(Chop_dfg.Partition.by_levels graph ~k:3)
    ~package:Chop_tech.Mosis.package_84
    ~clocks:
      (Chop_tech.Clocking.make ~main:300. ~datapath_ratio:1 ~transfer_ratio:1)
    ~style:(Chop_tech.Style.both Chop_tech.Style.Multi_cycle)
    ~criteria:(Chop_bad.Feasibility.criteria ~perf:20000. ~delay:20000. ())
    ~processors:[ cpu_big ] ~impls ()

let test_parse_edit_impl () =
  let spec = hwsw_spec (Chop_dfg.Benchmarks.elliptic_wave_filter ()) in
  (match Ops.parse_edit spec "impl P2 cpu" with
  | Ok (Spec.Set_impl { partition = "P2"; impl = "cpu" }) -> ()
  | Ok _ -> Alcotest.fail "wrong edit"
  | Error e -> Alcotest.fail e);
  (match Ops.parse_edit spec "impl P2 hw" with
  | Ok (Spec.Set_impl { partition = "P2"; impl = "hw" }) -> ()
  | _ -> Alcotest.fail "hw rebinding rejected");
  (match Ops.parse_edit spec "impl P2 dsp" with
  | Ok _ -> Alcotest.fail "unknown model accepted"
  | Error msg ->
      Alcotest.(check bool) "names the model" true (contains msg "\"dsp\"");
      Alcotest.(check bool) "lists the declared vocabulary" true
        (contains msg "hw, cpu"));
  (* on a hardware-only spec the vocabulary is just "hw" *)
  match Ops.parse_edit (ewf_spec ()) "impl P1 cpu" with
  | Ok _ -> Alcotest.fail "processor accepted without a declaration"
  | Error msg ->
      Alcotest.(check bool) "hw-only vocabulary" true (contains msg "hw")

let test_model_flip_keeps_models_cache_disjoint () =
  let cache = Pred_cache.create () in
  let config =
    Explore.Config.make ~jobs:1 ~cache:(Explore.Config.Custom cache) ()
  in
  let session =
    Explore.Session.create config
      (hwsw_spec (Chop_dfg.Benchmarks.elliptic_wave_filter ()))
  in
  Fun.protect
    ~finally:(fun () -> Explore.Session.close session)
    (fun () ->
      let cold = Explore.Session.run session in
      Alcotest.(check int) "cold run misses every partition" 3
        (misses cold);
      (match
         Explore.Session.edit session
           [ Spec.Set_impl { partition = "P2"; impl = "cpu" } ]
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%a" Spec.pp_update_error e);
      let sw = Explore.Session.run session in
      Alcotest.(check int)
        "flip repredicts only the flipped partition (hw entries cannot \
         serve software)" 1 (misses sw);
      Alcotest.(check int) "hardware partitions still hit" 2
        (hits sw);
      (match
         Explore.Session.edit session
           [ Spec.Set_impl { partition = "P2"; impl = "hw" } ]
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%a" Spec.pp_update_error e);
      let back = Explore.Session.run session in
      Alcotest.(check int)
        "flipping back misses nothing: both models' entries coexist" 0
        (misses back);
      Alcotest.(check int) "every partition hits" 3 (hits back))

let test_renumbered_runs_match_cache_off () =
  let cache = Pred_cache.create () in
  let config =
    Explore.Config.make ~jobs:1 ~cache:(Explore.Config.Custom cache) ()
  in
  let g = Chop_dfg.Benchmarks.elliptic_wave_filter () in
  let g' = Chop_dfg.Transform.renumber g in
  let all_cpu = [ ("P1", "cpu"); ("P2", "cpu"); ("P3", "cpu") ] in
  let run spec =
    let session = Explore.Session.create config spec in
    Fun.protect
      ~finally:(fun () -> Explore.Session.close session)
      (fun () -> Explore.Session.run session)
  in
  ignore (run (hwsw_spec g));
  (* same construction, software bindings: disjoint key space, so every
     partition misses — zero cross-model collisions *)
  let sw_cold = run (hwsw_spec ~impls:all_cpu g) in
  Alcotest.(check int) "software never hits hardware entries" 0
    (hits sw_cold);
  Alcotest.(check int) "software cold run misses every partition" 3
    (misses sw_cold);
  (* renumbered constructions on the cache both models have filled: each
     report equals its cache-off run *)
  List.iter
    (fun (name, spec) ->
      Alcotest.(check string)
        (name ^ ": cache on = cache off")
        (render spec (cold_run ~heuristic:Explore.Iterative spec))
        (render spec (run spec)))
    [ ("hw renumbered", hwsw_spec g'); ("sw renumbered", hwsw_spec ~impls:all_cpu g') ]

let test_snapshot_forward_compat () =
  let session =
    Explore.Session.create Explore.Config.default (ar_spec ~k:2 ())
  in
  let snap =
    Fun.protect
      ~finally:(fun () -> Explore.Session.close session)
      (fun () ->
        ignore (Explore.Session.run session);
        Snapshot.of_state
          ~meta:[ ("open", "{\"benchmark\":\"ar\"}") ]
          (Explore.Session.state session))
  in
  let future_lines =
    [ "modelstore digest=0abc shards=2"; "weights <<<"; "w1 0.5"; ">>>" ]
  in
  let text = Snapshot.print snap in
  (* a newer writer: extra statements after the header, and a
     per-partition field on a partition line inside the spec block *)
  let text =
    match String.index_opt text '\n' with
    | Some i ->
        String.sub text 0 (i + 1)
        ^ String.concat "\n" future_lines
        ^ "\n"
        ^ String.sub text (i + 1) (String.length text - i - 1)
    | None -> Alcotest.fail "empty snapshot"
  in
  let text =
    let old_s = "partition P2 = " in
    let n = String.length text and no = String.length old_s in
    let rec find i =
      if i + no > n then Alcotest.fail "no partition line to decorate"
      else if String.sub text i no = old_s then i
      else find (i + 1)
    in
    let i = find 0 in
    String.sub text 0 (i + no) ^ "impl=cpu " ^ String.sub text (i + no) (n - i - no)
  in
  let parsed = Snapshot.parse text in
  Alcotest.(check (list string)) "unknown statements captured in order"
    future_lines parsed.Snapshot.unknown;
  Alcotest.(check (list (pair string string))) "meta still parses"
    [ ("open", "{\"benchmark\":\"ar\"}") ]
    parsed.Snapshot.meta;
  (* print/parse round-trip keeps the foreign lines verbatim *)
  let reparsed = Snapshot.parse (Snapshot.print parsed) in
  Alcotest.(check (list string)) "unknown lines survive a round-trip"
    future_lines reparsed.Snapshot.unknown;
  (* restoring drops only what this binary has no slot for: the session
     itself is intact, including the partition that carried the field *)
  let restored =
    Explore.Session.restore Explore.Config.default (Snapshot.to_state reparsed)
  in
  Fun.protect
    ~finally:(fun () -> Explore.Session.close restored)
    (fun () ->
      let spec = Explore.Session.spec restored in
      Alcotest.(check (list string)) "partitions intact" [ "P1"; "P2" ]
        (List.sort compare (labels spec));
      ignore (Explore.Session.run restored))

(* ------------------------------------------------------------------ *)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "chop_session"
    [
      ( "update",
        [
          tc "merge dirties only dst" `Quick test_merge_dirties_only_dst;
          tc "move dirties both ends" `Quick test_move_dirties_both_ends;
          tc "criteria rederives all" `Quick test_criteria_rederives_all;
          tc "rejections are precise" `Quick test_rejections_are_precise;
          tc "emptying move rejected" `Quick test_emptying_move_rejected;
          QCheck_alcotest.to_alcotest random_edits_keep_invariants;
        ] );
      ( "soundness",
        [
          tc "ewf enumeration" `Quick
            (session_matches_cold ~heuristic:Explore.Enumeration
               (ewf_spec ())
               (fixed_edits (ewf_spec ())));
          tc "ewf iterative" `Quick
            (session_matches_cold ~heuristic:Explore.Iterative (ewf_spec ())
               (fixed_edits (ewf_spec ())));
          tc "ewf branch-bound" `Quick
            (session_matches_cold ~heuristic:Explore.Branch_bound
               (ewf_spec ())
               (fixed_edits (ewf_spec ())));
          tc "ar iterative" `Quick
            (session_matches_cold ~heuristic:Explore.Iterative (ar_spec ())
               (fixed_edits (ar_spec ())));
          QCheck_alcotest.to_alcotest random_session_matches_cold;
        ] );
      ( "incremental",
        [
          tc "misses equal dirty partitions" `Quick test_misses_equal_dirty;
          tc "revision and pending" `Quick test_session_revision_and_pending;
        ] );
      ( "history",
        [
          tc "undo stack is bounded" `Quick test_history_bounded;
          tc "history 0 disables undo" `Quick test_undo_disabled;
          QCheck_alcotest.to_alcotest undo_redo_inverse_laws;
        ] );
      ( "durability",
        [
          QCheck_alcotest.to_alcotest snapshot_roundtrip_preserves_session;
          tc "snapshot forward compatibility" `Quick
            test_snapshot_forward_compat;
        ] );
      ( "cache",
        [ QCheck_alcotest.to_alcotest cache_on_equals_cache_off ] );
      ( "models",
        [
          tc "parse_edit impl" `Quick test_parse_edit_impl;
          tc "flip keeps models' cache entries disjoint" `Quick
            test_model_flip_keeps_models_cache_disjoint;
          tc "renumbered runs match cache-off" `Quick
            test_renumbered_runs_match_cache_off;
        ] );
    ]
