(* The benchmark's closed loops must reproduce Sim.run and
   Dist_sim.run field for field on every workload, traced or not, so a
   change to the simulation loop cannot quietly decouple the benchmark
   from what the CLI and the experiments run. *)

module W = Perfbench.Workloads
module Drive = Perfbench.Drive
module Trace = Perfbench.Trace
module Generator = Prb_workload.Generator
module Scheduler = Prb_core.Scheduler
module Sim = Prb_sim.Sim
module D = Prb_distrib.Dist_scheduler
module Dist_sim = Prb_distrib.Dist_sim

let seed = 3
let n_txns = 300

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let check_central (w : W.t) cfg =
  let programs () = Generator.generate w.W.params ~seed ~n:n_txns in
  let expected =
    (Sim.run ~config:{ Sim.scheduler = cfg; mpl = W.mpl }
       ~store:(Generator.populate w.W.params) (programs ()))
      .Sim.stats
  in
  let drive traced =
    let sched = Scheduler.create ~config:cfg (Generator.populate w.W.params) in
    let programs = Array.of_list (programs ()) in
    if traced then begin
      let tr = Trace.create ~steps:0 ~rounds:0 in
      Drive.central_traced tr ~mpl:W.mpl sched programs;
      if tr.Trace.mismatches <> 0 then
        fail "%s: %d resolver replays disagreed" w.W.name tr.Trace.mismatches;
      if tr.Trace.n_choose <> expected.Scheduler.deadlocks then
        fail "%s: %d resolver spans for %d rounds" w.W.name tr.Trace.n_choose
          expected.Scheduler.deadlocks
    end
    else Drive.central ~mpl:W.mpl sched programs;
    Scheduler.stats sched
  in
  List.iter
    (fun traced ->
      if drive traced <> expected then
        fail "%s: closed loop (traced=%b) differs from Sim.run" w.W.name traced)
    [ false; true ]

let check_distrib (w : W.t) (cfg : D.config) =
  let programs () = Generator.generate w.W.params ~seed ~n:n_txns in
  let expected =
    (Dist_sim.run ~config:{ Dist_sim.scheduler = cfg; mpl = W.mpl }
       ~store:(Generator.populate w.W.params) (programs ()))
      .Dist_sim.stats
  in
  let drive traced =
    let sched = D.create cfg (Generator.populate w.W.params) in
    let l =
      Drive.distrib_loop ~mpl:W.mpl ~n_sites:cfg.D.n_sites sched
        (Array.of_list (programs ()))
    in
    if traced then Drive.distrib_traced (Trace.create ~steps:0 ~rounds:0) l
    else Drive.distrib l;
    if Array.length (Drive.distrib_latencies l) <> n_txns then
      fail "%s: not every commit was seen" w.W.name;
    D.stats sched
  in
  List.iter
    (fun traced ->
      if drive traced <> expected then
        fail "%s: closed loop (traced=%b) differs from Dist_sim.run" w.W.name traced)
    [ false; true ]

let () =
  List.iter
    (fun (w : W.t) ->
      (match w.W.engine with
      | W.Central cfg -> check_central w cfg
      | W.Distrib cfg -> check_distrib w cfg);
      Printf.printf "parity %s: ok\n" w.W.name)
    W.all
