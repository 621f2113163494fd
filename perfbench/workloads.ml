(* The benchmark's workloads. Why each one exists, and which layer it is
   meant to expose, is written down in NOTES.md; the definitions here are
   the single source the runner, the tracer and the parity test share. *)

module Generator = Prb_workload.Generator
module Scheduler = Prb_core.Scheduler
module Policy = Prb_core.Policy
module Detection_policy = Prb_core.Detection_policy
module Strategy = Prb_rollback.Strategy
module D = Prb_distrib.Dist_scheduler

type engine = Central of Scheduler.config | Distrib of D.config

type t = {
  name : string;
  params : Generator.params;
  engine : engine;
  n_txns : int;  (** transactions per repetition *)
}

(* One closed loop of 16 clients on one thread: the machine this was
   sized on has two cores, and the engines are single-threaded. *)
let mpl = 16

(* Far above what any workload needs (the slowest in simulated time,
   distrib_hot, ends near 1.6M ticks), so reaching it means a livelock,
   and the run fails. *)
let max_ticks = 50_000_000

let hot =
  {
    Generator.default_params with
    n_entities = 64;
    zipf_theta = 0.8;
    read_fraction = 0.3;
    min_locks = 3;
    max_locks = 6;
  }

(* Far more entities than the lock table, the waits-for graph or the
   history ever hold at once (MPL 16 × at most 6 locks), so the data set
   does not fit in anything the engine keeps live. *)
let cold = { hot with n_entities = 200_000; zipf_theta = 0.0 }

let central detection =
  Central
    {
      Scheduler.default_config with
      strategy = Strategy.Sdg;
      policy = Policy.Ordered_min_cost;
      detection;
      starvation_limit = None;
      max_ticks;
    }

let all =
  [
    {
      name = "hot_mixed";
      params = hot;
      engine = central Detection_policy.Eager;
      n_txns = 24_000;
    };
    {
      name = "hot_periodic";
      params = hot;
      engine = central (Detection_policy.Periodic 32);
      n_txns = 24_000;
    };
    {
      name = "cold_wide";
      params = cold;
      engine = central Detection_policy.Eager;
      n_txns = 10_000;
    };
    {
      name = "distrib_hot";
      params = hot;
      engine =
        Distrib
          {
            D.default_config with
            n_sites = 4;
            detection = D.Local_then_global 50;
            policy = Policy.Youngest;
            strategy = Strategy.Sdg;
            max_ticks;
          };
      n_txns = 24_000;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
