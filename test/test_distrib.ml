(* Tests for Prb_distrib: the multi-site engine, both detection schemes,
   and the message accounting of Section 3.3. *)

module D = Prb_distrib.Dist_scheduler
module Dist_sim = Prb_distrib.Dist_sim
module Generator = Prb_workload.Generator
module Strategy = Prb_rollback.Strategy
module Value = Prb_storage.Value
module Store = Prb_storage.Store
module Program = Prb_txn.Program
module Expr = Prb_txn.Expr
module History = Prb_history.History

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let params =
  { Generator.default_params with n_entities = 24; zipf_theta = 0.7; max_locks = 5 }

let run_workload ?(n = 60) ?(mpl = 8) detection strategy =
  let store = Generator.populate params in
  let programs = Generator.generate params ~seed:4 ~n in
  let config =
    {
      Dist_sim.scheduler =
        {
          D.default_config with
          n_sites = 4;
          detection;
          strategy;
          seed = 4;
          max_ticks = 400_000;
        };
      mpl;
    }
  in
  Dist_sim.run ~config ~store programs

let test_local_global_completes () =
  List.iter
    (fun strategy ->
      let r = run_workload (D.Local_then_global 40) strategy in
      checki "all commit" 60 r.Dist_sim.stats.D.commits;
      checkb "serializable" true r.Dist_sim.serializable)
    Strategy.all_basic

let test_wound_wait_completes_deadlock_free () =
  List.iter
    (fun strategy ->
      let r = run_workload D.Wound_wait strategy in
      checki "all commit" 60 r.Dist_sim.stats.D.commits;
      checki "zero deadlocks" 0 r.Dist_sim.stats.D.deadlocks;
      checkb "wounds happened" true (r.Dist_sim.stats.D.wounds > 0);
      checkb "serializable" true r.Dist_sim.serializable)
    Strategy.all_basic

let test_total_ships_nothing () =
  let r = run_workload (D.Local_then_global 40) Strategy.Total in
  checki "no bookkeeping shipped" 0 r.Dist_sim.stats.D.shipped_copies

let test_partial_ships_bookkeeping () =
  let r = run_workload (D.Local_then_global 40) Strategy.Sdg in
  checkb "bookkeeping follows moving txns" true
    (r.Dist_sim.stats.D.shipped_copies > 0)

let test_messages_accounted () =
  let r = run_workload (D.Local_then_global 40) Strategy.Sdg in
  checkb "remote traffic exists" true (r.Dist_sim.stats.D.messages > 0);
  checkb "detector ran" true (r.Dist_sim.stats.D.detection_rounds > 0)

let test_single_site_degenerates () =
  (* one site: everything local, no messages, local detection only *)
  let store = Generator.populate params in
  let programs = Generator.generate params ~seed:4 ~n:40 in
  let config =
    {
      Dist_sim.scheduler =
        {
          D.default_config with
          n_sites = 1;
          detection = D.Local_then_global 40;
          seed = 4;
        };
      mpl = 8;
    }
  in
  let r = Dist_sim.run ~config ~store programs in
  checki "commits" 40 r.Dist_sim.stats.D.commits;
  checki "no global deadlocks" 0 r.Dist_sim.stats.D.global_deadlocks;
  checki "no remote messages" 0
    (r.Dist_sim.stats.D.messages - r.Dist_sim.stats.D.detection_rounds)

let test_cross_site_deadlock_needs_global_detector () =
  (* a two-site deadlock: the contested entities live on different sites,
     so neither site alone can see the cycle; only the global detector
     resolves it. *)
  let store = Store.of_list [ ("ea", Value.int 0); ("eb", Value.int 0) ] in
  let site_of = function "ea" -> 0 | _ -> 1 in
  let config =
    { D.default_config with n_sites = 2; detection = D.Local_then_global 25 }
  in
  let d = D.create ~site_of config store in
  let p name first second =
    Program.make ~name ~locals:[ ("v", Value.int 0) ]
      [
        Program.lock_x first;
        Program.read first "v";
        Program.lock_x second;
        Program.write second Expr.(var "v" + int 1);
      ]
  in
  let _ = D.submit d ~home:0 (p "t0" "ea" "eb") in
  let _ = D.submit d ~home:1 (p "t1" "eb" "ea") in
  D.run d;
  let s = D.stats d in
  checki "both commit" 2 s.D.commits;
  checki "no local deadlock seen" 0 s.D.local_deadlocks;
  checkb "global detector resolved it" true (s.D.global_deadlocks >= 1);
  checkb "stalled until a detection round" true (s.D.detection_rounds >= 1);
  checkb "serializable" true (History.serializable (D.history d))

let test_same_site_deadlock_resolved_locally () =
  let store = Store.of_list [ ("ea", Value.int 0); ("eb", Value.int 0) ] in
  let site_of _ = 0 in
  let config =
    { D.default_config with n_sites = 2; detection = D.Local_then_global 1000 }
  in
  let d = D.create ~site_of config store in
  let p name first second =
    Program.make ~name ~locals:[ ("v", Value.int 0) ]
      [
        Program.lock_x first;
        Program.read first "v";
        Program.lock_x second;
        Program.write second Expr.(var "v" + int 1);
      ]
  in
  let _ = D.submit d ~home:0 (p "t0" "ea" "eb") in
  let _ = D.submit d ~home:0 (p "t1" "eb" "ea") in
  D.run d;
  let s = D.stats d in
  checki "both commit" 2 s.D.commits;
  checkb "resolved locally, immediately" true (s.D.local_deadlocks >= 1);
  checkb "well before the first detection round" true (s.D.ticks < 100)

let test_wound_wait_orders_by_age () =
  (* older requester wounds younger holder; the younger requester waits *)
  let store = Store.of_list [ ("ea", Value.int 0) ] in
  let config = { D.default_config with n_sites = 1; detection = D.Wound_wait } in
  let d = D.create config store in
  let hold =
    Program.make ~name:"holder" ~locals:[ ("v", Value.int 0) ]
      [
        Program.lock_x "ea";
        Program.read "ea" "v";
        Program.read "ea" "v";
        Program.read "ea" "v";
        Program.write "ea" Expr.(var "v" + int 1);
      ]
  in
  (* t0 (older) arrives second at the entity: holder is t1? — here t1 is
     the younger and holds; t0's request wounds it. *)
  let slow_start =
    Program.make ~name:"older" ~locals:[ ("w", Value.int 0) ]
      [
        Program.assign "w" (Expr.int 1);
        Program.assign "w" (Expr.int 2);
        Program.lock_x "ea";
        Program.write "ea" (Expr.int 99);
      ]
  in
  let _ = D.submit d ~home:0 slow_start (* id 0 = older *) in
  let _ = D.submit d ~home:0 hold (* id 1 = younger, locks first *) in
  D.run d;
  let s = D.stats d in
  checki "both commit" 2 s.D.commits;
  checkb "the younger holder was wounded" true (s.D.wounds >= 1);
  checkb "serializable" true (History.serializable (D.history d))

let test_deterministic () =
  let run () =
    let r = run_workload (D.Local_then_global 40) Strategy.Sdg in
    r.Dist_sim.stats
  in
  checkb "same stats" true (run () = run ())

(* qcheck: any (seed, detection, strategy) combination completes
   serializably. *)
let qcheck_distrib_serializable =
  QCheck.Test.make
    ~name:"distributed runs complete serializably for all configurations"
    ~count:20
    QCheck.(triple small_int bool (int_bound 2))
    (fun (seed, wound, strat_i) ->
      let strategy = List.nth Strategy.all_basic strat_i in
      let detection = if wound then D.Wound_wait else D.Local_then_global 30 in
      let store = Generator.populate params in
      let programs = Generator.generate params ~seed ~n:30 in
      let config =
        {
          Dist_sim.scheduler =
            {
              D.default_config with
              n_sites = 3;
              detection;
              strategy;
              seed;
              max_ticks = 200_000;
            };
          mpl = 6;
        }
      in
      let r = Dist_sim.run ~config ~store programs in
      r.Dist_sim.stats.D.commits = 30 && r.Dist_sim.serializable)

(* Deferred detection policies on the multi-site engine: global rounds
   batch several accreted cycles, and their victims restart staggered with
   escalation for repeat victims — without that, the deterministic
   workload replays the same collision forever (the livelock this test
   regresses). Every deferred policy must still complete the contended
   workload. *)
let test_deferred_policies_complete () =
  let module DP = Prb_core.Detection_policy in
  List.iter
    (fun detection_policy ->
      let store = Generator.populate params in
      let programs = Generator.generate params ~seed:4 ~n:60 in
      let config =
        {
          Dist_sim.scheduler =
            {
              D.default_config with
              n_sites = 4;
              detection = D.Local_then_global 40;
              detection_policy;
              starvation_limit = Some 8;
              seed = 4;
              max_ticks = 400_000;
            };
          mpl = 8;
        }
      in
      let r = Dist_sim.run ~config ~store programs in
      let s = r.Dist_sim.stats in
      checki
        (Fmt.str "all commit under %a" DP.pp detection_policy)
        60 s.D.commits;
      checkb "cycles were actually deferred to global rounds" true
        (s.D.global_deadlocks >= 1);
      checkb "serializable" true r.Dist_sim.serializable)
    DP.all_deferred

(* Under a deferred detection policy the site-local block-time rounds
   once rolled their victims back with neither backoff nor escalation:
   on this hot workload a repeat victim was rolled back every period by a
   site-local round, forever, and the run stopped at [max_ticks] with
   transactions uncommitted. Every round is deferred now, so all commit. *)
let test_deferred_local_rounds_no_livelock () =
  let module DP = Prb_core.Detection_policy in
  let params = { Generator.default_params with zipf_theta = 0.8 } in
  List.iter
    (fun seed ->
      List.iter
        (fun detection_policy ->
          let store = Generator.populate params in
          let programs = Generator.generate params ~seed ~n:3000 in
          let config =
            {
              Dist_sim.scheduler =
                { D.default_config with detection_policy; seed };
              mpl = 16;
            }
          in
          let r = Dist_sim.run ~config ~store programs in
          checki
            (Fmt.str "seed %d: all commit under %a" seed DP.pp
               detection_policy)
            3000 r.Dist_sim.stats.D.commits)
        DP.all_deferred)
    [ 6; 8 ]

(* qcheck: a global round's census-driven pick against the scan it
   replaced. The reference lives here, since production code may not
   depend on a reference implementation: it walks every blocked
   transaction in ascending id order, enumerates its cycles, labels them
   the way the resolver receives them and keeps the first transaction
   with a visible cycle. Random waits-for graphs over six entities spread
   over three sites, random per-site shipment visibility and a random
   cycle limit; after each pick the youngest member of its first cycle
   stops waiting, and the two picks must agree all the way down to "no
   deadlock". With every site visible, each enumeration was a pick. *)
let qcheck_census_pick_vs_scan =
  let module W = Prb_wfg.Waits_for in
  let n = 8 in
  QCheck.Test.make ~name:"census-driven global pick matches the full scan"
    ~count:300
    QCheck.(
      quad
        (list_of_size Gen.(6 -- 6) (int_bound 2))
        (list_of_size Gen.(3 -- 3) bool)
        (int_bound 2)
        (list_of_size Gen.(0 -- 16)
           (triple (int_bound (n - 1))
              (list_of_size Gen.(1 -- 3) (int_bound (n - 1)))
              (int_bound 5))))
    (fun (sites, vis, limit_i, waits) ->
      let sites = Array.of_list sites and vis = Array.of_list vis in
      let limit = List.nth [ 1; 3; 256 ] limit_i in
      let site_of e = sites.(int_of_string (String.sub e 1 1)) in
      let d =
        D.create ~site_of
          { D.default_config with n_sites = 3; cycle_limit = limit }
          (Store.create ())
      in
      let g = D.waits_for d in
      List.iter
        (fun (w, hs, e) ->
          match List.sort_uniq compare (List.filter (fun h -> h <> w) hs) with
          | [] -> ()
          | holders -> W.set_wait g ~waiter:w ~holders ("e" ^ string_of_int e))
        waits;
      let visible cycle = List.for_all (fun (_, e) -> vis.(site_of e)) cycle in
      let label u v =
        match W.wait_label g u v with Some e -> e | None -> assert false
      in
      let arcs requester cycle =
        let rec go = function
          | [] -> []
          | [ last ] -> [ (requester, label last requester) ]
          | u :: (v :: _ as rest) -> (v, label u v) :: go rest
        in
        go cycle
      in
      let scan () =
        List.find_map
          (fun b ->
            if not (W.is_blocked g b) then None
            else
              match
                List.filter visible
                  (List.map (arcs b) (W.cycles_through ~limit g b))
              with
              | [] -> None
              | cycles -> Some (b, cycles))
          (List.init n Fun.id)
      in
      let rec rounds k picks =
        let pick = D.next_global_deadlock d ~visible in
        pick = scan ()
        &&
        match pick with
        | None ->
            (not (Array.for_all Fun.id vis))
            || (D.stats d).D.enumerate_calls = picks
        | Some (_, cycle :: _) ->
            k < 100
            &&
            (W.clear_wait g (List.fold_left (fun m (v, _) -> max m v) 0 cycle);
             rounds (k + 1) (picks + 1))
        | Some (_, []) -> false
      in
      rounds 0 0)

(* Deterministic count regression on E13's distributed high-contention
   points (seed 11, four sites): enumeration runs only for a transaction
   a check has put on a cycle — a site-local one at block time, a visible
   one in a global round — so every cycle enumeration resolves a
   deadlock. The scan the census replaced enumerated 20216 times for
   1369 deadlocks at 1k transactions and 106709 times for 7281 at 5k. *)
let test_e13_every_enumeration_resolves () =
  let module Scale = Prb_bench_scale.Scale in
  List.iter
    (fun txns ->
      let p = Scale.run_distrib ~contention:`High ~txns in
      checki (Printf.sprintf "all %d commit" txns) txns p.Scale.commits;
      checki
        (Printf.sprintf "enumerations = deadlocks at %d txns" txns)
        p.Scale.deadlocks p.Scale.enumerate_calls)
    [ 1000; 5000 ]

(* The escalation rule of deferred rounds, as the multi-site engine
   applies it. Under a deferred detection policy every round is deferred,
   the site-local block-time rounds as much as the global ones: a victim
   already rolled back [deferred_escalation] (4) times is fully restarted
   and resumes [stagger + min 4096 n²] ticks late ([n] its prior rollback
   count, [stagger] its position among a round's victims, so below the
   number of blocked transactions); every other victim is rolled back
   partially. The engine has no deadlock hook, so the test watches each
   transaction's rollback count across steps. *)
let test_escalation () =
  let module DP = Prb_core.Detection_policy in
  let module Txn_state = Prb_rollback.Txn_state in
  let module Waits_for = Prb_wfg.Waits_for in
  checki "threshold" 4 Prb_core.Kernel.deferred_escalation;
  (* a leading assignment puts lock state 0 at pc 1, so a full restart
     (pc 0) is told apart from a partial [Mcs] rollback *)
  let with_prologue (p : Program.t) =
    let v = fst (List.hd p.Program.locals) in
    Program.make ~name:p.Program.name ~locals:p.Program.locals
      (Program.Assign (v, Expr.int 0) :: Array.to_list p.Program.ops)
  in
  let params =
    { Generator.default_params with n_entities = 32; zipf_theta = 0.9 }
  in
  let store = Generator.populate params in
  let programs =
    Array.of_list
      (List.map with_prologue (Generator.generate params ~seed:5 ~n:300))
  in
  let config =
    {
      D.default_config with
      strategy = Strategy.Mcs;
      detection_policy = DP.Periodic 32;
    }
  in
  let sched = D.create config store in
  let ts v = D.txn_state sched v in
  let ids = ref [] and submitted = ref 0 in
  let refill () =
    while
      !submitted < Array.length programs
      && !submitted - D.n_committed sched < 16
    do
      let home = !submitted mod 4 in
      ids := D.submit sched ~home programs.(!submitted) :: !ids;
      incr submitted
    done
  in
  let escalated = ref 0 and partial = ref 0 and local_escalated = ref 0 in
  (* restarted victims not yet resumed: (id, executed after the restart,
     earliest and latest tick it may resume at) *)
  let waiting = ref [] in
  refill ();
  let continue = ref true in
  while !continue do
    let before = List.map (fun v -> (v, Txn_state.n_rollbacks (ts v))) !ids in
    let local = (D.stats sched).D.local_deadlocks in
    let blocked =
      List.length
        (List.filter (Waits_for.is_blocked (D.waits_for sched)) !ids)
    in
    continue := D.step sched;
    let now = D.now sched in
    let local_round = (D.stats sched).D.local_deadlocks > local in
    waiting :=
      List.filter
        (fun (v, executed, lo, hi) ->
          if Txn_state.total_executed (ts v) = executed then begin
            checkb "restarted victim resumes by its latest tick" true
              (now <= hi);
            true
          end
          else begin
            checkb "restarted victim waits out its delay" true
              (lo <= now && now <= hi);
            false
          end)
        !waiting;
    List.iter
      (fun (v, prior) ->
        if Txn_state.n_rollbacks (ts v) > prior then
          if prior >= 4 then begin
            incr escalated;
            if local_round then incr local_escalated;
            checki "escalated: full restart" 0 (Txn_state.pc (ts v));
            let delay = 1 + min 4096 (prior * prior) in
            waiting :=
              ( v,
                Txn_state.total_executed (ts v),
                now + delay,
                now + delay + blocked )
              :: !waiting
          end
          else begin
            incr partial;
            checkb "partial rollback" true (Txn_state.pc (ts v) > 0)
          end)
      before;
    refill ()
  done;
  checkb "all commit" true (D.all_committed sched);
  checkb "escalations happened" true (!escalated > 0);
  checkb "site-local rounds escalate too" true (!local_escalated > 0);
  checkb "partial rollbacks happened" true (!partial > 0);
  checkb "every restarted victim resumed" true (!waiting = [])

let () =
  Alcotest.run "prb_distrib"
    [
      ( "workloads",
        [
          Alcotest.test_case "local+global completes" `Slow test_local_global_completes;
          Alcotest.test_case "wound-wait completes" `Quick
            test_wound_wait_completes_deadlock_free;
          Alcotest.test_case "total ships nothing" `Quick test_total_ships_nothing;
          Alcotest.test_case "partial ships bookkeeping" `Quick
            test_partial_ships_bookkeeping;
          Alcotest.test_case "messages accounted" `Quick test_messages_accounted;
          Alcotest.test_case "single site degenerates" `Quick test_single_site_degenerates;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          QCheck_alcotest.to_alcotest qcheck_distrib_serializable;
        ] );
      ( "detection",
        [
          Alcotest.test_case "cross-site needs global detector" `Quick
            test_cross_site_deadlock_needs_global_detector;
          Alcotest.test_case "same-site resolved locally" `Quick
            test_same_site_deadlock_resolved_locally;
          Alcotest.test_case "wound-wait ages" `Quick test_wound_wait_orders_by_age;
          Alcotest.test_case "deferred policies complete" `Slow
            test_deferred_policies_complete;
          Alcotest.test_case "deferred local rounds do not livelock" `Slow
            test_deferred_local_rounds_no_livelock;
          QCheck_alcotest.to_alcotest qcheck_census_pick_vs_scan;
          Alcotest.test_case "deferred escalation" `Quick test_escalation;
          Alcotest.test_case "E13 high: every enumeration resolves" `Slow
            test_e13_every_enumeration_resolves;
        ] );
    ]
