(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload (see Workloads and NOTES.md) over and over for S
   seconds, each repetition from the same seed, and prints as its last
   line one JSON object: whether every repetition passed the correctness
   gate, how many transactions were attempted and failed, and the
   metrics. With --trace 0 the metrics are the end-to-end ones, medians
   over untraced repetitions. With --trace 1 they are the per-layer ones,
   medians over traced repetitions, each run after an untraced one.
   Exits 1 when the gate fails, 2 on bad arguments. *)

module W = Perfbench.Workloads
module Drive = Perfbench.Drive
module Trace = Perfbench.Trace
module Generator = Prb_workload.Generator
module Scheduler = Prb_core.Scheduler
module D = Prb_distrib.Dist_scheduler
module History = Prb_history.History
module Lock_table = Prb_lock.Lock_table
module Txn_state = Prb_rollback.Txn_state
module Store = Prb_storage.Store
module Program = Prb_txn.Program
module Stats = Prb_util.Stats

(* Everything the engines simulate. It depends on the seed alone, so
   every repetition of one seed, traced or not, must produce it exactly. *)
type outcome = {
  submitted : int;
  commits : int;
  ticks : int;
  deadlocks : int;
  rollbacks : int;
  ops_executed : int;
  ops_committed : int;
  lock_requests : int;
  lock_blocks : int;
  lock_upgrades : int;
  messages : int;
  latency_p50 : float;
  latency_p99 : float;
}

(* The per-layer counters an engine reports through its public API. The
   ones an engine does not have are 0. *)
type counters = {
  check_s : float;
  check_calls : int;
  enumerate_s : float;
  enumerate_calls : int;
  requeues : int;
  ops_lost : int;
  overshoot_ops : int;
  peak_copies : int;
  installs : int;
  local_deadlocks : int;
  global_deadlocks : int;
  detection_rounds : int;
  shipped_copies : int;
}

(* What running one engine loop yields, before the checks. *)
type run = {
  create_s : float;
  engine_s : float;
  alloc_words : float;
  outcome : outcome;
  counters : counters;
  history : History.t;
  trace : Trace.t option;
}

type rep = {
  setup_s : float;
  r_engine_s : float;
  r_alloc_words : float;
  top_heap_words : int;  (** the process's peak heap when the repetition ended *)
  r_outcome : outcome;
  failure : string option;  (** why this repetition fails the gate *)
  layers : (string * string * float) list;  (** traced repetitions only *)
}

let seconds_since t0 = float_of_int (Trace.now_ns () - t0) *. 1e-9

let timed f =
  let t0 = Trace.now_ns () in
  let r = f () in
  (r, seconds_since t0)

(* Words allocated, counted once whether they were born in the minor or
   the major heap. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Times and allocation of the engine loop [f] alone. OCaml 5.1's
   [Gc.compact] is a full major collection: it runs before the loop, so
   garbage from set-up and earlier repetitions is not collected on the
   loop's clock, and allocation repeats to the word from the second
   repetition on. *)
let engine_loop f =
  Gc.compact ();
  let a0 = allocated_words () in
  let (), engine_s = timed f in
  (engine_s, allocated_words () -. a0)

let pct a p = if Array.length a = 0 then 0.0 else Stats.percentile a p
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let new_trace (w : W.t) = Trace.create ~steps:(w.W.n_txns * 48) ~rounds:w.W.n_txns

let run_central (w : W.t) cfg ~traced store programs =
  let cfg = if traced then { cfg with Scheduler.clock = Some Trace.clock } else cfg in
  let sched, create_s = timed (fun () -> Scheduler.create ~config:cfg store) in
  let trace = if traced then Some (new_trace w) else None in
  let engine_s, alloc_words =
    engine_loop (fun () ->
        match trace with
        | None -> Drive.central ~mpl:W.mpl sched programs
        | Some tr -> Drive.central_traced tr ~mpl:W.mpl sched programs)
  in
  let s = Scheduler.stats sched in
  let lt = Scheduler.lock_table sched in
  let lat =
    Array.of_list
      (List.filter_map
         (fun id -> Option.map float_of_int (Scheduler.latency sched id))
         (Scheduler.all_txns sched))
  in
  {
    create_s;
    engine_s;
    alloc_words;
    outcome =
      {
        submitted = Array.length programs;
        commits = s.Scheduler.commits;
        ticks = s.Scheduler.ticks;
        deadlocks = s.Scheduler.deadlocks;
        rollbacks = s.Scheduler.rollbacks;
        ops_executed = s.Scheduler.ops_executed;
        ops_committed = s.Scheduler.ops_committed;
        lock_requests = Lock_table.n_requests lt;
        lock_blocks = Lock_table.n_blocks lt;
        lock_upgrades = Lock_table.n_upgrades lt;
        messages = 0;
        latency_p50 = pct lat 50.0;
        latency_p99 = pct lat 99.0;
      };
    counters =
      {
        check_s = Scheduler.check_seconds sched;
        check_calls = Scheduler.check_calls sched;
        enumerate_s = Scheduler.enumerate_seconds sched;
        enumerate_calls = Scheduler.enumerate_calls sched;
        requeues = s.Scheduler.requeues;
        ops_lost = s.Scheduler.ops_lost;
        overshoot_ops = s.Scheduler.overshoot_ops;
        peak_copies = s.Scheduler.peak_copies;
        installs = Store.install_count store;
        local_deadlocks = 0;
        global_deadlocks = 0;
        detection_rounds = 0;
        shipped_copies = 0;
      };
    history = Scheduler.history sched;
    trace;
  }

let run_distrib (w : W.t) (cfg : D.config) ~traced store programs =
  let cfg = if traced then { cfg with D.clock = Some Trace.clock } else cfg in
  let sched, create_s = timed (fun () -> D.create cfg store) in
  let l = Drive.distrib_loop ~mpl:W.mpl ~n_sites:cfg.D.n_sites sched programs in
  let trace = if traced then Some (new_trace w) else None in
  let engine_s, alloc_words =
    engine_loop (fun () ->
        match trace with
        | None -> Drive.distrib l
        | Some tr -> Drive.distrib_traced tr l)
  in
  let s = D.stats sched in
  let lt = D.lock_table sched in
  (* The engine's stats carry no op totals; fold them from the
     transactions, as the central engine's stats do. *)
  let executed = ref 0 and committed_ops = ref 0 and peak_copies = ref 0 in
  Array.iter
    (fun id ->
      if id >= 0 then begin
        let ts = D.txn_state sched id in
        executed := !executed + Txn_state.total_executed ts;
        peak_copies := max !peak_copies (Txn_state.peak_copies ts);
        match Txn_state.phase ts with
        | Txn_state.Committed ->
            committed_ops := !committed_ops + Program.length (Txn_state.program ts)
        | Txn_state.Growing | Txn_state.Shrinking -> ()
      end)
    l.Drive.ids;
  let lat = Array.map float_of_int (Drive.distrib_latencies l) in
  {
    create_s;
    engine_s;
    alloc_words;
    outcome =
      {
        submitted = Array.length programs;
        commits = s.D.commits;
        ticks = s.D.ticks;
        deadlocks = s.D.deadlocks;
        rollbacks = s.D.rollbacks;
        ops_executed = !executed;
        ops_committed = !committed_ops;
        lock_requests = Lock_table.n_requests lt;
        lock_blocks = Lock_table.n_blocks lt;
        lock_upgrades = Lock_table.n_upgrades lt;
        messages = s.D.messages;
        latency_p50 = pct lat 50.0;
        latency_p99 = pct lat 99.0;
      };
    counters =
      {
        check_s = s.D.check_seconds;
        check_calls = s.D.check_calls;
        enumerate_s = s.D.enumerate_seconds;
        enumerate_calls = s.D.enumerate_calls;
        requeues = 0;
        ops_lost = s.D.ops_lost;
        overshoot_ops = 0;
        peak_copies = !peak_copies;
        installs = Store.install_count store;
        local_deadlocks = s.D.local_deadlocks;
        global_deadlocks = s.D.global_deadlocks;
        detection_rounds = s.D.detection_rounds;
        shipped_copies = s.D.shipped_copies;
      };
    history = D.history sched;
    trace;
  }

(* Per-layer metrics of one traced repetition, besides the spans'. *)
let layer_metrics ~populate_s ~generate_s ~certify_s (o : outcome) c =
  [
    ("workload.populate_s", "s", populate_s);
    ("workload.generate_s", "s", generate_s);
    ("lock.requests", "count", float_of_int o.lock_requests);
    ("lock.blocks", "count", float_of_int o.lock_blocks);
    ("lock.block_frac", "ratio", ratio o.lock_blocks o.lock_requests);
    ("lock.upgrades", "count", float_of_int o.lock_upgrades);
    ("wfg.check_s", "s", c.check_s);
    ("wfg.check_calls", "count", float_of_int c.check_calls);
    ("wfg.enumerate_s", "s", c.enumerate_s);
    ("wfg.enumerate_calls", "count", float_of_int c.enumerate_calls);
    ("resolver.rounds", "count", float_of_int o.deadlocks);
    ("rollback.count", "count", float_of_int o.rollbacks);
    ("rollback.requeues", "count", float_of_int c.requeues);
    ("rollback.ops_lost_per_rollback", "ops", ratio c.ops_lost o.rollbacks);
    ("rollback.overshoot_frac", "ratio", ratio c.overshoot_ops c.ops_lost);
    ("rollback.peak_copies", "count", float_of_int c.peak_copies);
    ("history.certify_s", "s", certify_s);
    ("store.installs_per_commit", "count/commit", ratio c.installs o.commits);
    ("distrib.local_deadlocks", "count", float_of_int c.local_deadlocks);
    ("distrib.global_deadlocks", "count", float_of_int c.global_deadlocks);
    ("distrib.detection_rounds", "count", float_of_int c.detection_rounds);
    ("distrib.shipped_per_commit", "copies/commit", ratio c.shipped_copies o.commits);
    ("distrib.msgs_per_commit", "msgs/commit", ratio o.messages o.commits);
  ]

let gate o ~serializable ~mismatches =
  if o.commits <> o.submitted then
    Some (Printf.sprintf "%d of %d transactions committed" o.commits o.submitted)
  else if not serializable then Some "history not serializable"
  else if mismatches > 0 then
    Some (Printf.sprintf "%d resolver replays disagreed with the engine" mismatches)
  else None

(* A traced repetition's spans, under the working directory (the
   checkout root when run through run.sh). Each passing traced
   repetition overwrites the file, which so holds the last one's. *)
let write_spans (w : W.t) t =
  let dir = ".bench_trace" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Trace.write t (Filename.concat dir (w.W.name ^ ".tsv"))

(* One repetition: set up from the seed, run the closed loop, check.
   A traced repetition that passes writes its spans. *)
let run_once (w : W.t) ~seed ~traced =
  let store, populate_s = timed (fun () -> Generator.populate w.W.params) in
  let programs, generate_s =
    timed (fun () -> Array.of_list (Generator.generate w.W.params ~seed ~n:w.W.n_txns))
  in
  let r =
    match w.W.engine with
    | W.Central cfg -> run_central w cfg ~traced store programs
    | W.Distrib cfg -> run_distrib w cfg ~traced store programs
  in
  Printf.eprintf "perfbench: %s repetition: engine %.4f s, set-up %.4f s\n%!"
    (if traced then "traced" else "untraced")
    r.engine_s (populate_s +. generate_s +. r.create_s);
  let serializable, certify_s = timed (fun () -> History.serializable r.history) in
  let mismatches = match r.trace with Some t -> t.Trace.mismatches | None -> 0 in
  let failure = gate r.outcome ~serializable ~mismatches in
  let layers =
    match r.trace with
    | None -> []
    | Some t ->
        if Option.is_none failure then write_spans w t;
        layer_metrics ~populate_s ~generate_s ~certify_s r.outcome r.counters
        @ Trace.summary t
  in
  {
    setup_s = populate_s +. generate_s +. r.create_s;
    r_engine_s = r.engine_s;
    r_alloc_words = r.alloc_words;
    top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
    r_outcome = r.outcome;
    failure;
    layers;
  }

let failed_rep (w : W.t) msg =
  {
    setup_s = 0.0;
    r_engine_s = 0.0;
    r_alloc_words = 0.0;
    top_heap_words = 0;
    r_outcome =
      {
        submitted = w.W.n_txns;
        commits = 0;
        ticks = 0;
        deadlocks = 0;
        rollbacks = 0;
        ops_executed = 0;
        ops_committed = 0;
        lock_requests = 0;
        lock_blocks = 0;
        lock_upgrades = 0;
        messages = 0;
        latency_p50 = 0.0;
        latency_p99 = 0.0;
      };
    failure = Some msg;
    layers = [];
  }

let run_guarded (w : W.t) ~seed ~traced =
  try run_once w ~seed ~traced with
  | Scheduler.Stuck m | D.Stuck m -> failed_rep w ("stuck: " ^ m)
  | e -> failed_rep w (Printexc.to_string e)

let median xs = Stats.median (Array.of_list xs)

(* --- Metrics ------------------------------------------------------- *)

let end_to_end (reps : rep list) =
  let first = List.hd reps in
  let o = first.r_outcome in
  let m f = median (List.map f reps) in
  let commits = float_of_int o.commits in
  [
    ("commits_per_s", "1/s", m (fun r -> commits /. r.r_engine_s));
    ("setup_s", "s", m (fun r -> r.setup_s));
    ("alloc_words_per_commit", "words", m (fun r -> r.r_alloc_words) /. commits);
    ( "peak_heap_mb",
      "MB",
      float_of_int (first.top_heap_words * (Sys.word_size / 8)) /. 1048576.0 );
    ("executed_per_committed_op", "ops/op", ratio o.ops_executed o.ops_committed);
    ("sim_commits_per_ktick", "1/ktick", 1000.0 *. ratio o.commits o.ticks);
    ("txn_latency_p50_ticks", "ticks", o.latency_p50);
    ("txn_latency_p99_ticks", "ticks", o.latency_p99);
    ("committed_txn_frac", "ratio", ratio o.commits o.submitted);
  ]

(* Per-layer metrics: the median of each over the traced repetitions,
   plus the tracing overhead against the untraced ones. *)
let per_layer ~(traced : rep list) ~(untraced : rep list) =
  let engine reps = median (List.map (fun r -> r.r_engine_s) reps) in
  let value (_, _, v) = v in
  List.mapi
    (fun i (k, u, _) ->
      (k, u, median (List.map (fun r -> value (List.nth r.layers i)) traced)))
    (List.hd traced).layers
  @ [ ("trace.overhead_frac", "ratio", (engine traced /. engine untraced) -. 1.0) ]

(* --- Output -------------------------------------------------------- *)

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (k, u, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" k v u)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S seconds to measure (> 0)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let w =
    match W.find !workload with
    | Some w when !seed >= 0 && !seconds > 0 && (!trace = 0 || !trace = 1) -> w
    | _ ->
        prerr_endline usage;
        prerr_endline
          ("workloads: " ^ String.concat ", " (List.map (fun w -> w.W.name) W.all));
        exit 2
  in
  let traced_mode = !trace = 1 in
  let t0 = Trace.now_ns () in
  (* At least three untraced repetitions (two pairs when tracing), so a
     median never rests on one repetition. *)
  let rec loop untraced traced n =
    if n >= (if traced_mode then 2 else 3) && seconds_since t0 >= float_of_int !seconds
    then (List.rev untraced, List.rev traced)
    else
      let u = run_guarded w ~seed:!seed ~traced:false in
      let t = if traced_mode then [ run_guarded w ~seed:!seed ~traced:true ] else [] in
      loop (u :: untraced) (t @ traced) (n + 1)
  in
  let untraced, traced = loop [] [] 0 in
  let reps = untraced @ traced in
  let first = (List.hd reps).r_outcome in
  let failure r =
    match r.failure with
    | Some _ as f -> f
    | None when r.r_outcome <> first -> Some "outcome differs between repetitions"
    | None -> None
  in
  let failures = List.filter_map failure reps in
  List.iter (fun f -> prerr_endline ("perfbench: " ^ f)) failures;
  (* A repetition that fails the gate fails all its transactions. *)
  let attempted = List.fold_left (fun a r -> a + r.r_outcome.submitted) 0 reps in
  let failed =
    List.fold_left
      (fun a r -> if Option.is_some (failure r) then a + r.r_outcome.submitted else a)
      0 reps
  in
  let metrics =
    if failures <> [] then []
    else if traced_mode then per_layer ~traced ~untraced
    else end_to_end untraced
  in
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  if not finite then prerr_endline "perfbench: a metric is not a finite number";
  let correct = failures = [] && finite in
  print_result ~correct ~attempted ~failed (if correct then metrics else []);
  exit (if correct then 0 else 1)
