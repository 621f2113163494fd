(* Closed loops. Each keeps [mpl] transactions in the engine and
   admits the next program whenever one commits, exactly as [Sim.run] and
   [Dist_sim.run] do: the same refill rule, programs admitted in list
   order, and, for the multi-site engine, home sites assigned round-robin
   in admission order. test_parity.ml holds them to that.

   The plain loops are what the end-to-end metrics time. The traced ones
   are the same loops with a span around every step (see {!Trace}); a
   step's class is the public counter it moved. *)

module Scheduler = Prb_core.Scheduler
module Resolver = Prb_core.Resolver
module D = Prb_distrib.Dist_scheduler
module Lock_table = Prb_lock.Lock_table
module Txn_state = Prb_rollback.Txn_state

(* Admits programs in order while fewer than [mpl] are uncommitted. *)
let central_refill ~mpl sched programs =
  let submitted = ref 0 in
  fun () ->
    while
      !submitted < Array.length programs
      && !submitted - Scheduler.n_committed sched < mpl
    do
      ignore (Scheduler.submit sched programs.(!submitted));
      incr submitted
    done

let central ~mpl sched programs =
  let refill = central_refill ~mpl sched programs in
  refill ();
  while Scheduler.step sched do
    refill ()
  done

(* The multi-site engine reports no per-transaction commit tick, so the
   loop reads it from outside: after every step that moved the commit
   counter it finds the live transactions whose phase became [Committed]
   and stamps them with the current tick. *)
type distrib_loop = {
  sched : D.t;
  programs : Prb_txn.Program.t array;
  mpl : int;
  n_sites : int;
  ids : int array;
  submit_tick : int array;
  commit_tick : int array;
  live : int array;  (** admission indices not yet seen committed *)
  mutable n_live : int;
  mutable submitted : int;
  mutable committed : int;
}

let distrib_loop ~mpl ~n_sites sched programs =
  let n = Array.length programs in
  {
    sched;
    programs;
    mpl;
    n_sites;
    ids = Array.make n (-1);
    submit_tick = Array.make n (-1);
    commit_tick = Array.make n (-1);
    live = Array.make mpl 0;
    n_live = 0;
    submitted = 0;
    committed = 0;
  }

let refill l =
  while
    l.submitted < Array.length l.programs
    && l.submitted - D.n_committed l.sched < l.mpl
  do
    let i = l.submitted in
    l.submitted <- i + 1;
    l.ids.(i) <- D.submit l.sched ~home:(i mod l.n_sites) l.programs.(i);
    l.submit_tick.(i) <- D.now l.sched;
    l.live.(l.n_live) <- i;
    l.n_live <- l.n_live + 1
  done

let reap l =
  let k = ref 0 in
  while !k < l.n_live do
    let i = l.live.(!k) in
    match Txn_state.phase (D.txn_state l.sched l.ids.(i)) with
    | Txn_state.Committed ->
        l.commit_tick.(i) <- D.now l.sched;
        l.n_live <- l.n_live - 1;
        l.live.(!k) <- l.live.(l.n_live)
    | Txn_state.Growing | Txn_state.Shrinking -> incr k
  done

(* Returns [true] when the step moved the commit counter. *)
let after_step l =
  let c = D.n_committed l.sched in
  if c <> l.committed then begin
    l.committed <- c;
    reap l;
    refill l;
    true
  end
  else false

let distrib l =
  refill l;
  while D.step l.sched do
    ignore (after_step l)
  done

(* Submit-to-commit ticks of every committed transaction. *)
let distrib_latencies l =
  let acc = ref [] in
  for i = Array.length l.programs - 1 downto 0 do
    if l.commit_tick.(i) >= 0 then
      acc := (l.commit_tick.(i) - l.submit_tick.(i)) :: !acc
  done;
  Array.of_list !acc

(* --- Traced loops -------------------------------------------------- *)

(* The engine's own [release_cost], rebuilt from the transaction state:
   an arc a member holds the entity for is broken by rolling back to the
   lowest target that releases all of them; a queue arc costs one op. *)
let release_cost sched v entities =
  let ts = Scheduler.txn_state sched v in
  let held, queued =
    List.partition (fun e -> Option.is_some (Txn_state.holds ts e)) entities
  in
  let rollback_part =
    match held with
    | [] -> 0
    | es ->
        Txn_state.cost_of_target ts
          (List.fold_left
             (fun acc e -> min acc (Txn_state.rollback_target ts e))
             max_int es)
  in
  rollback_part + if queued = [] then 0 else 1

(* Replays each resolution round's victim choice inside the deadlock
   hook, which runs after the engine chose and before it rolls anyone
   back, so the replay sees the state the engine saw. The workloads run
   [Ordered_min_cost] with no starvation guard, so the engine's policy
   is the configured one in eager and deferred rounds alike and nobody
   is immune; the random source is never drawn from by that policy. The
   hook's whole time is a child of the step, so it leaves the step's
   self time. *)
let replay_hook tr sched ~policy =
  let rng = Prb_util.Rng.make 1 in
  let entry_order v = Txn_state.entry_order (Scheduler.txn_state sched v) in
  let release_cost = release_cost sched in
  fun ~requester ~cycles ~(decision : Resolver.decision) ->
    let s = Trace.now_ns () in
    let replay =
      Resolver.choose ~policy ~requester ~entry_order ~release_cost ~rng cycles
    in
    let e = Trace.now_ns () in
    if
      replay.Resolver.victims <> decision.Resolver.victims
      || replay.Resolver.optimal <> decision.Resolver.optimal
    then tr.Trace.mismatches <- tr.Trace.mismatches + 1;
    Trace.record_choose tr ~requester ~dur:(e - s) ~cycles:(List.length cycles)
      ~victims:(List.length decision.Resolver.victims)
      ~exact:decision.Resolver.optimal;
    tr.Trace.cur_child <- tr.Trace.cur_child + (Trace.now_ns () - s)

(* The central loop with a span per step. Admission happens only after
   a commit (the refill rule is a no-op otherwise), so it runs inside the
   commit step's span. The class counters are read after the span closes;
   the engine's detection seconds are re-read only when their call
   counters moved, which is the only time they change, and what a resolve
   step spent in them is kept for [rollback.apply_s]. *)
let central_traced tr ~mpl sched programs =
  Scheduler.set_deadlock_hook sched
    (replay_hook tr sched ~policy:(Scheduler.config sched).Scheduler.policy);
  let lt = Scheduler.lock_table sched in
  let refill = central_refill ~mpl sched programs in
  let t0 = Trace.now_ns () in
  refill ();
  let committed = ref 0
  and checks = ref (Scheduler.check_calls sched)
  and enums = ref (Scheduler.enumerate_calls sched)
  and blocks = ref (Lock_table.n_blocks lt)
  and requests = ref (Lock_table.n_requests lt)
  and check_s = ref (Scheduler.check_seconds sched)
  and enum_s = ref (Scheduler.enumerate_seconds sched)
  and continue = ref true in
  while !continue do
    let s = Trace.now_ns () in
    let more = Scheduler.step sched in
    let c = Scheduler.n_committed sched in
    if c <> !committed then refill ();
    let e = Trace.now_ns () in
    if more then begin
      let ck = Scheduler.check_calls sched
      and en = Scheduler.enumerate_calls sched
      and b = Lock_table.n_blocks lt
      and r = Lock_table.n_requests lt in
      let cls =
        if c <> !committed then Trace.commit
        else if en <> !enums then Trace.resolve
        else if b <> !blocks then Trace.block
        else if r <> !requests then Trace.grant
        else Trace.other
      in
      if cls = Trace.commit then
        Trace.note_retained tr
          (Prb_history.History.n_retained_intervals (Scheduler.history sched));
      let detect_s = ref 0.0 in
      if ck <> !checks then begin
        let v = Scheduler.check_seconds sched in
        detect_s := v -. !check_s;
        check_s := v;
        checks := ck
      end;
      if en <> !enums then begin
        let v = Scheduler.enumerate_seconds sched in
        detect_s := !detect_s +. (v -. !enum_s);
        enum_s := v;
        enums := en
      end;
      if cls = Trace.resolve then
        tr.Trace.resolve_detect_s <- tr.Trace.resolve_detect_s +. !detect_s;
      committed := c;
      blocks := b;
      requests := r;
      Trace.record_step tr ~start:(s - t0) ~dur:(e - s) ~cls
    end;
    continue := more
  done;
  tr.Trace.engine_ns <- Trace.now_ns () - t0

(* The multi-site loop with a span per step. Its engine exposes its
   detection counters only through [D.stats], whose cost grows with the
   run, so steps are classed by commit, block and request alone: local
   resolutions land in [block] (they run in the blocked request's step)
   and global detection rounds in [other]. *)
let distrib_traced tr l =
  let lt = D.lock_table l.sched in
  let t0 = Trace.now_ns () in
  refill l;
  let blocks = ref (Lock_table.n_blocks lt)
  and requests = ref (Lock_table.n_requests lt)
  and continue = ref true in
  while !continue do
    let s = Trace.now_ns () in
    let more = D.step l.sched in
    let committed = after_step l in
    let e = Trace.now_ns () in
    if more then begin
      let b = Lock_table.n_blocks lt and r = Lock_table.n_requests lt in
      let cls =
        if committed then Trace.commit
        else if b <> !blocks then Trace.block
        else if r <> !requests then Trace.grant
        else Trace.other
      in
      if committed then
        Trace.note_retained tr
          (Prb_history.History.n_retained_intervals (D.history l.sched));
      blocks := b;
      requests := r;
      Trace.record_step tr ~start:(s - t0) ~dur:(e - s) ~cls
    end;
    continue := more
  done;
  tr.Trace.engine_ns <- Trace.now_ns () - t0
