module Program = Prb_txn.Program
module Lock_mode = Prb_txn.Lock_mode
module Lock_table = Prb_lock.Lock_table
module Waits_for = Prb_wfg.Waits_for
module Strategy = Prb_rollback.Strategy
module Txn_state = Prb_rollback.Txn_state
module History = Prb_history.History
module Pqueue = Prb_util.Dense.Pqueue
module Txn_id = Prb_txn.Txn_id
module Fault = Prb_fault.Fault
module Round = Prb_graph.Round

type intervention =
  | Detect
  | Timeout_abort of int
  | Wound_wait_c
  | Wait_die_c

type config = {
  strategy : Strategy.t;
  policy : Policy.t;
  intervention : intervention;
  detection : Detection_policy.t;
  starvation_limit : int option;
  seed : int;
  max_ticks : int;
  cycle_limit : int;
  fair_locking : bool;
  faults : Fault.plan option;
  clock : (unit -> float) option;
}

let default_config =
  {
    strategy = Strategy.Sdg;
    policy = Policy.Ordered_min_cost;
    intervention = Detect;
    detection = Detection_policy.Eager;
    starvation_limit = None;
    seed = 1;
    max_ticks = 1_000_000;
    cycle_limit = 256;
    fair_locking = true;
    faults = None;
    clock = None;
  }

exception Stuck = Kernel.Stuck

module Log = Kernel.Log

(* Events live in a dense int-payload queue ({!Pqueue}): each entry is a
   (tag, a, b) triple, so the steady-state tick loop pushes and pops
   without allocating. The tags: *)

let ev_exec = 0 (* [a] = transaction id *)
let ev_timer = 1 (* a [Timeout_abort] timer; [a] = transaction id *)

let ev_crash_txn = 2
(* a scheduled transaction crash; [a] is the plan's victim selector
   (possibly negative), resolved against the live growing transactions
   when the crash fires *)

let ev_detect_tick = 3
(* a scheduled detection pass ([Periodic]/[Adaptive]); fires a full
   sweep and reschedules itself, so the queue never drains while
   transactions are deadlocked *)

let ev_probe = 4
(* a [Lazy_on_timeout] probe for a blocked transaction [a]; [b] is the
   tick at which the wait being probed began, so a probe armed for an
   abandoned wait dies silently (the next block arms a fresh one) *)

let ev_watchdog = 5
(* the stall watchdog: periodically checks for a transaction blocked
   past the policy's stall bound with no detection pass since it
   blocked, and forces a full sweep if one exists *)

type t = {
  cfg : config;
  k : Kernel.t;
  events : Pqueue.t;
  mutable cycles_broken : int;
  mutable optimal_resolutions : int;
  mutable timeout_events : int;
  mutable prevention_events : int;
  mutable txn_crash_events : int;
  mutable crash_counts : int array;
      (** crashes suffered per transaction, driving re-admission backoff *)
  mutable wait_dirty : bool array;
      (** flags transactions whose waits-for out-edges were (re)installed
          since the graph was last known acyclic; every cycle passes
          through one of them, so deadlock resolution seeds its search
          here instead of rescanning all blocked transactions each round.
          [dirty_ids.(0 .. n_dirty)] lists the flagged ids (unsorted,
          duplicate-free). *)
  mutable dirty_ids : int array;
  mutable n_dirty : int;
  mutable lazy_false : int array;
      (** per-transaction count of consecutive false-alarm lazy probes in
          the current blocking episode, driving probe backoff (reset when
          an episode begins) *)
  mutable last_detect_tick : int;
      (** tick of the last full detection sweep (not targeted probes —
          a probe only proves one reachable slice acyclic, which the
          watchdog must not mistake for global coverage) *)
  mutable detect_interval : int;  (** current [Adaptive] sweep cadence *)
  mutable quiet_passes : int;  (** consecutive empty [Adaptive] sweeps *)
  mutable detection_passes : int;
  mutable watchdog_fires : int;
  mutable missed_passes : int;
  mutable submit_ticks : int array;  (** [-1] when never submitted *)
  mutable commit_ticks : int array;  (** [-1] when uncommitted *)
  mutable ops_committed : int;
  mutable deadlock_hook :
    (requester:int -> cycles:Resolver.cycle list -> decision:Resolver.decision -> unit)
    option;
}

let create ?(config = default_config) store =
  let deferred =
    match config.intervention with
    | Detect -> not (Detection_policy.is_eager config.detection)
    | Timeout_abort _ | Wound_wait_c | Wait_die_c -> false
  in
  let t =
  {
    cfg = config;
    k =
      Kernel.create ~fair:config.fair_locking ~strategy:config.strategy
        ~policy:config.policy ~starvation_limit:config.starvation_limit
        ~seed:config.seed ~cycle_limit:config.cycle_limit ~deferred
        ~clock:config.clock store;
    events = Pqueue.create ();
    cycles_broken = 0;
    optimal_resolutions = 0;
    timeout_events = 0;
    prevention_events = 0;
    txn_crash_events = 0;
    crash_counts = [||];
    wait_dirty = [||];
    dirty_ids = Array.make 16 0;
    n_dirty = 0;
    lazy_false = [||];
    last_detect_tick = 0;
    detect_interval = Detection_policy.initial_interval config.detection;
    quiet_passes = 0;
    detection_passes = 0;
    watchdog_fires = 0;
    missed_passes = 0;
    submit_ticks = [||];
    commit_ticks = [||];
    ops_committed = 0;
    deadlock_hook = None;
  }
  in
  (match config.faults with
  | Some p when not (Fault.is_none p) ->
      List.iter
        (fun (c : Fault.txn_crash) ->
          Pqueue.push t.events ~priority:(max 1 c.Fault.crash_at)
            ~tag:ev_crash_txn ~a:c.Fault.victim ~b:0)
        p.Fault.txn_crashes
  | Some _ | None -> ());
  (* A deferred detection policy supplies its own wake sources up front:
     the sweep tick chain ([Periodic]/[Adaptive]) and the watchdog chain
     are both self-perpetuating, so the event queue cannot drain while
     deadlocked transactions sit with no [Exec] events of their own. *)
  if deferred then begin
    (match config.detection with
    | Detection_policy.Periodic _ | Detection_policy.Adaptive ->
        Pqueue.push t.events
          ~priority:(Detection_policy.initial_interval config.detection)
          ~tag:ev_detect_tick ~a:0 ~b:0
    | Detection_policy.Eager | Detection_policy.Lazy_on_timeout _ -> ());
    Pqueue.push t.events
      ~priority:(Detection_policy.stall_bound config.detection)
      ~tag:ev_watchdog ~a:0 ~b:0
  end;
  t

let config t = t.cfg
let store t = t.k.Kernel.store

let submit_at ?copy_allocation t ~at program =
  let k = t.k in
  let at = max at k.tick in
  let id = Kernel.admit ?copy_allocation k program in
  t.crash_counts <- Kernel.grow k 0 t.crash_counts;
  t.wait_dirty <- Kernel.grow k false t.wait_dirty;
  t.lazy_false <- Kernel.grow k 0 t.lazy_false;
  t.submit_ticks <- Kernel.grow k (-1) t.submit_ticks;
  t.commit_ticks <- Kernel.grow k (-1) t.commit_ticks;
  t.submit_ticks.(id) <- at;
  Pqueue.push t.events ~priority:(max (k.tick + 1) at) ~tag:ev_exec ~a:id ~b:0;
  id

let submit ?copy_allocation t program =
  submit_at ?copy_allocation t ~at:t.k.tick program

(* A direct array read: this lookup runs on every step. *)
let txn_state t id =
  if id < 0 || id >= t.k.next_id then raise Not_found
  else
    match t.k.txns.(id) with Some ts -> ts | None -> raise Not_found

let all_txns t = List.init t.k.next_id Fun.id

let now t = t.k.tick
let n_committed t = t.k.commits
let all_committed t = Kernel.all_committed t.k
let waits_for t = t.k.wfg
let lock_table t = t.k.locks
let history t = t.k.hist
let check_seconds t = Kernel.check_seconds t.k
let check_calls t = t.k.check_calls
let enumerate_seconds t = Kernel.enumerate_seconds t.k
let enumerate_calls t = t.k.enumerate_calls
let cut_nodes t = Kernel.cut_nodes t.k
let cut_cycles t = Kernel.cut_cycles t.k
let n_blocked_tracked t = t.k.n_blocked

let schedule t id =
  Pqueue.push t.events ~priority:(t.k.tick + 1) ~tag:ev_exec ~a:id ~b:0

(* Every (re)installation of wait edges goes through here so the dirty
   set stays a sound overapproximation of "out-edges changed since the
   graph was last acyclic" — the invariant resolve_deadlocks leans on.
   The flag array keeps [dirty_ids] duplicate-free. *)
let[@lint.allow
     "A1: amortized dirty-set doubling; steady-state marking writes in \
      place"] set_wait t ~waiter ~holders e =
  Waits_for.set_wait t.k.wfg ~waiter ~holders e;
  if not t.wait_dirty.(waiter) then begin
    t.wait_dirty.(waiter) <- true;
    (if t.n_dirty = Array.length t.dirty_ids then begin
       let b = Array.make (2 * t.n_dirty) 0 in
       Array.blit t.dirty_ids 0 b 0 t.n_dirty;
       t.dirty_ids <- b
     end);
    t.dirty_ids.(t.n_dirty) <- waiter;
    t.n_dirty <- t.n_dirty + 1
  end

(* After the holder set of [e] changed without a grant, blocked waiters'
   waits-for edges must track the new holders. O(1) exit when nothing
   queues on [e]. *)
let[@lint.allow
     "A1: runs only when a contended entity's holder set changed; \
      re-pointing consumes the waiter/blocker lists the lock-table API \
      returns, and the uncontended path exits at the has_waiters \
      check"] refresh_waiters t e =
  let locks = t.k.locks in
  if Lock_table.has_waiters locks e then
    List.iter
      (fun (w, _) ->
        match Lock_table.blockers locks w with
        | [] -> () (* about to be granted by the caller's grant pass *)
        | holders -> set_wait t ~waiter:w ~holders e)
      (Lock_table.waiters locks e)

let process_one_grant t w mode e =
  (Log.debug (fun m ->
       m "[%d] grant %a(%s) to T%d (from queue)" t.k.tick Lock_mode.pp mode
         e w)
   [@lint.allow "A1: log msgf closure renders only when a reporter is armed"]);
  Kernel.granted t.k w mode e;
  Txn_state.lock_granted (txn_state t w);
  schedule t w

(* [Lock_table.release]/[cancel_wait] report (waiter, mode) pairs for one
   known entity: processing them directly keeps the steady release path
   free of the triple-list rebuild. *)
let rec process_grants_on t e = function
  | [] -> ()
  | (w, mode) :: rest ->
      process_one_grant t w mode e;
      process_grants_on t e rest

(* Release one lock of [id] on [e] and propagate: grants wake waiters,
   survivors re-point their edges. *)
let release_lock t id e =
  process_grants_on t e (Lock_table.release t.k.locks id e);
  refresh_waiters t e

(* --- Deadlock resolution ------------------------------------------- *)

(* A victim abandons its pending request; shrinking its queue may unblock
   waiters behind it, and survivors re-point their edges. *)
let abandon_wait t v =
  (match Lock_table.cancel_wait t.k.locks v with
  | Some (e, grants) ->
      process_grants_on t e grants;
      refresh_waiters t e
  | None -> ());
  Kernel.unblock t.k v

module Rollback = Kernel.Rollback (struct
  type nonrec engine = t

  let kernel t = t.k
  let abandon_wait = abandon_wait

  let release t v ~restart:_ released =
    List.iter
      (fun e ->
        History.discard t.k.hist v e;
        release_lock t v e)
      released

  let resume t v ~at = Pqueue.push t.events ~priority:at ~tag:ev_exec ~a:v ~b:0
end)

(* Self-restart: the transaction abandons its pending request, rolls back
   to state 0 releasing everything, and starts over (keeping its id, which
   is its timestamp). The prevention/timeout baselines use it. *)
let[@lint.allow
     "A1: a restart abandons the pending request and rolls the victim \
      back to state 0 — restart machinery allocates by design, off the \
      grant fast path"] self_restart t id =
  Rollback.restart t id ~at:(t.k.tick + 1)

(* One resolution round: count it, pick victims, apply the rollbacks.
   The hook's list view of the round is built only when a hook is
   installed. *)
let[@lint.allow
     "A1: a resolution round builds the resolver decision and applies \
      the victims' rollbacks; it runs only on a detected \
      deadlock"] resolve_round t requester (round : Round.t) =
  Log.info (fun m ->
      m "[%d] deadlock: %d cycle(s) through T%d" t.k.tick round.ncyc
        requester);
  t.cycles_broken <- t.cycles_broken + round.ncyc;
  let decision = Kernel.choose t.k requester round in
  if decision.Resolver.optimal then
    t.optimal_resolutions <- t.optimal_resolutions + 1;
  (match t.deadlock_hook with
  | Some hook -> hook ~requester ~cycles:(Round.to_cycles round) ~decision
  | None -> ());
  Rollback.apply_victims t decision

(* Resolve until no blocked transaction lies on a cycle. New requests can
   only close cycles through the requester, but a resolution round's side
   effects (requeues, grants, edge re-pointing) can leave or create cycles
   elsewhere.

   The fixpoint is incremental: the graph was acyclic the last time the
   dirty set was cleared, and every edge (re)installation since marks its
   waiter dirty, so any cycle now alive passes through a dirty blocked
   transaction. Each round therefore seeds one SCC pass at the dirty
   transactions instead of running full cycle analyses over every blocked
   transaction; a round with no blocked dirty transaction, or whose seeded
   SCC pass finds no cycle, proves the whole graph acyclic and clears the
   set. The requester examined first is chosen exactly as the full rescan
   did — [primary] when it lies on a cycle, else the smallest blocked id
   on one — so victim choices (and hence all statistics) are unchanged.

   [primary = None] is a full sweep (deferred policies, watchdog): same
   fixpoint, no preferred requester. Only this fixpoint may clear the
   dirty set — its convergence proves the whole graph acyclic, which a
   targeted probe's single reachable slice never does. *)
let rd_converged t =
  for i = 0 to t.n_dirty - 1 do
    t.wait_dirty.(t.dirty_ids.(i)) <- false
  done;
  t.n_dirty <- 0

(* Ascending-id seed order is part of the replayable contract (it was
   [Util.sorted_keys] over the dirty table); a round's resolutions can
   append new dirty ids, so the prefix is re-sorted every round. The
   insertion-shift is a top-level int-annotated helper so the sort
   neither builds a closure nor falls back to polymorphic compare. *)
let rec rd_shift (a : int array) j x =
  if j >= 0 && a.(j) > x then begin
    a.(j + 1) <- a.(j);
    rd_shift a (j - 1) x
  end
  else a.(j + 1) <- x

let rd_sort_dirty t =
  let a = t.dirty_ids in
  for i = 1 to t.n_dirty - 1 do
    rd_shift a (i - 1) a.(i)
  done

let[@lint.allow
     "A1: builds the SCC seed list only while dirty blocked transactions \
      exist; the clean-graph fixpoint round allocates \
      nothing"] rec rd_seeds t i acc =
  if i < 0 then acc
  else
    let id = t.dirty_ids.(i) in
    rd_seeds t (i - 1)
      (if Waits_for.is_blocked t.k.wfg id then id :: acc else acc)

(* One cycle-handling step of the fixpoint: victim selection over the
   cycles through the first candidate that yields any within budget.
   Returns whether a round was applied (and the fixpoint must rerun).
   Enumeration refills the kernel's round in place; the first candidate
   whose round holds a cycle is resolved from it. *)
let rec rd_mem (v : int) = function
  | [] -> false
  | h :: rest -> h = v || rd_mem v rest

let rec rd_first t (skip : int) = function
  | [] -> -1
  | b :: rest ->
      if b <> skip && (Kernel.cycles t.k b).Round.ncyc > 0 then b
      else rd_first t skip rest

let[@lint.allow
     "A1: runs only when the seeded SCC pass reported a cycle; the \
      resolver's decision and the rollbacks it applies allocate, while \
      enumeration refills the kernel's round in place"] rd_round t primary
    on_cycle =
  let requester =
    match primary with
    | Some p when rd_mem p on_cycle && (Kernel.cycles t.k p).Round.ncyc > 0 ->
        p
    | Some p -> rd_first t p on_cycle
    | None -> rd_first t (-1) on_cycle
  in
  if requester < 0 then
    (* Cycle enumeration hit its budget everywhere it looked: leave the
       dirty set in place so the next resolution revisits these
       transactions. *)
    false
  else begin
    resolve_round t requester t.k.Kernel.round;
    true
  end

let rec rd_fixpoint t primary round =
  if round > 1000 then raise (Stuck "deadlock resolution did not converge");
  rd_sort_dirty t;
  match rd_seeds t (t.n_dirty - 1) [] with
  | [] -> rd_converged t
  | seeds -> (
      match
        (Kernel.on_cycle_from t.k seeds
         [@lint.allow "A1: the census list is the detector's report"])
      with
      | [] -> rd_converged t
      | on_cycle ->
          if rd_round t primary on_cycle then
            rd_fixpoint t primary (round + 1))

let[@hot] resolve_deadlocks t primary = rd_fixpoint t primary 1

(* A targeted lazy probe: examine only the waits-for slice reachable from
   the one transaction whose timer expired, resolving until that slice is
   cycle-free. Returns whether any deadlock was found. Never touches the
   dirty set — an acyclic slice says nothing about the rest of the
   graph. *)
let resolve_probe t id =
  let found = ref false in
  let continue_ = ref true in
  let round = ref 0 in
  while !continue_ do
    incr round;
    if !round > 1000 then raise (Stuck "probe resolution did not converge");
    match Kernel.on_cycle_from t.k [ id ] with
    | [] -> continue_ := false
    | on_cycle -> (
        let requester =
          if List.exists (Txn_id.equal id) on_cycle then id
          else List.fold_left min (List.hd on_cycle) on_cycle
        in
        let round = Kernel.cycles t.k requester in
        if round.Round.ncyc = 0 then
          (* enumeration budget exhausted; leave it to the watchdog's
             full sweep rather than spinning here *)
          continue_ := false
        else begin
          found := true;
          resolve_round t requester round
        end)
  done;
  !found

(* A full detection sweep (periodic/adaptive tick or watchdog): one run
   of the global fixpoint, whose check/enumerate cost bills itself at the
   waits-for call sites. Returns whether it found any deadlock, which
   drives the adaptive cadence. *)
let[@lint.allow
     "A1: a full detection sweep is scheduled work off the request \
      path"] run_sweep t =
  t.detection_passes <- t.detection_passes + 1;
  let before = t.k.deadlocks in
  resolve_deadlocks t None;
  t.last_detect_tick <- t.k.tick;
  t.k.deadlocks > before

(* Detector outages model the asynchronous detector service being down:
   scheduled passes and probes are suppressed (counted as missed) while
   the current tick lies inside an outage window. Eager detection is not
   a service — it is inline in the lock-request path (the paper's scheme
   has no separate detector process) — so it is unaffected. *)
let in_detector_outage t =
  match t.cfg.faults with
  | Some p -> Fault.in_outage p t.k.tick
  | None -> false

(* First tick at or after now that lies outside every outage window. *)
let[@lint.allow
     "A1: consulted only while the detector sits inside an injected \
      outage window — fault-plan bookkeeping, not steady-state \
      work"] outage_end t =
  match t.cfg.faults with
  | None -> t.k.tick
  | Some p ->
      List.fold_left
        (fun acc (o : Fault.outage) ->
          if o.Fault.out_from <= acc && acc < o.Fault.out_until then
            o.Fault.out_until
          else acc)
        t.k.tick
        (List.sort
           (fun (a : Fault.outage) b ->
             Int.compare a.Fault.out_from b.Fault.out_from)
           p.Fault.detector_outages)

(* Wound-wait (centralised): the older requester wounds each younger
   blocker, which partially rolls back just far enough to release the
   entity (or requeues, if it was merely queued ahead); shrinking-phase
   blockers are immune and safe to wait for. *)
let[@lint.allow
     "A1: a wound rolls the younger blocker back far enough to release \
      the entity — the prevention baseline's rollback path allocates its \
      restart machinery by design"] wound_younger_blockers t requester e
    blockers =
  List.iter
    (fun b ->
      if
        b > requester
        && Txn_state.phase (txn_state t b) = Txn_state.Growing
      then begin
        t.prevention_events <- t.prevention_events + 1;
        Log.info (fun m ->
            m "[%d] T%d wounds T%d over %s" t.k.tick requester b e);
        Rollback.apply_rollback t b [ e ]
      end)
    blockers

(* A transaction crash (fault plan): the victim loses its volatile state —
   rollback to state 0, releasing everything — and is re-admitted after a
   delay that doubles with repeated crashes of the same transaction.
   Shrinking transactions are past their commit point and immune, so the
   plan's victim selector resolves against live growing transactions
   only (modulo their count, keeping plans replayable on any workload). *)
let[@lint.allow
     "A1: fault-injection path — a crash rolls the victim back to state \
      0 and re-admits it after a backoff; crash machinery allocates by \
      design"] crash_transaction t selector =
  let live =
    List.filter
      (fun id -> Txn_state.phase (txn_state t id) = Txn_state.Growing)
      (all_txns t)
  in
  match live with
  | [] -> ()
  | _ :: _ ->
      let id = List.nth live (abs selector mod List.length live) in
      let n = 1 + t.crash_counts.(id) in
      t.crash_counts.(id) <- n;
      t.txn_crash_events <- t.txn_crash_events + 1;
      Log.info (fun m -> m "[%d] T%d crashed (crash #%d)" t.k.tick id n);
      let to_ =
        match t.cfg.faults with
        | Some p -> p.Fault.timeouts
        | None -> Fault.default_timeouts
      in
      let delay =
        to_.Fault.readmit_delay * (1 lsl min (n - 1) to_.Fault.backoff_cap)
      in
      Rollback.restart t id ~at:(t.k.tick + 1 + delay)

(* --- Executing one transaction step -------------------------------- *)

(* Wait-die: is some blocker older (smaller id = earlier timestamp) than
   the requester? Top-level and int-annotated for the hot request path. *)
let rec any_blocker_older (id : int) = function
  | [] -> false
  | b :: rest -> b < id || any_blocker_older id rest

let handle_lock_request t id mode e =
  let k = t.k in
  let ts = txn_state t id in
  match Lock_table.request k.locks id mode e with
  | Lock_table.Granted ->
      History.note_grant k.hist ~tick:k.tick id e mode;
      Txn_state.lock_granted ts;
      (* A direct grant can change the holder set under queued waiters
         (a shared request joining shared holders past a queued exclusive
         one): their waits-for edges must follow, or cycles through the
         new holder are invisible to later deadlock checks. *)
      refresh_waiters t e;
      schedule t id
  | Lock_table.Blocked holders -> (
      (Log.debug (fun m ->
           m "[%d] T%d blocked on %a(%s) behind %s" k.tick id Lock_mode.pp
             mode e
             (String.concat "," (List.map (Printf.sprintf "T%d") holders)))
       [@lint.allow
         "A1: log msgf closure renders only when a reporter is armed"]);
      set_wait t ~waiter:id ~holders e;
      (* Every block is tracked, whatever the intervention: the duration
         feeds the blocked-time statistics, the lazy probes and the stall
         watchdog; [Timeout_abort] timers read it as before. *)
      if k.blocked_since.(id) < 0 then
        (* a new episode: no lazy probe has missed yet *)
        t.lazy_false.(id) <- 0;
      Kernel.note_blocked k id;
      match t.cfg.intervention with
      | Detect -> (
          match t.cfg.detection with
          | Detection_policy.Eager ->
              (* Edges installed; a deadlock exists iff some blocker
                 reaches the waiter (Section 3.1's descendant check).
                 Only the boolean probe itself is a "check" — resolution
                 bills its enumeration to the enumerate counters and its
                 rollback work to nobody. *)
              if Kernel.would_deadlock k ~waiter:id ~holders then
                (resolve_deadlocks t (Some id)
                 [@lint.allow
                   "A1: a detected deadlock hands the requester to \
                    resolution, which allocates by design"])
          | Detection_policy.Periodic _ | Detection_policy.Adaptive ->
              (* the request path pays nothing; the sweep chain detects *)
              ()
          | Detection_policy.Lazy_on_timeout { blocked_ticks; _ } ->
              Pqueue.push t.events
                ~priority:(k.tick + blocked_ticks)
                ~tag:ev_probe ~a:id ~b:k.tick)
      | Timeout_abort n ->
          Pqueue.push t.events ~priority:(k.tick + n) ~tag:ev_timer ~a:id ~b:0
      | Wound_wait_c -> wound_younger_blockers t id e holders
      | Wait_die_c ->
          if any_blocker_older id holders then begin
            (* younger than a blocker: die, keeping the timestamp *)
            t.prevention_events <- t.prevention_events + 1;
            (Log.info (fun m -> m "[%d] T%d dies over %s" k.tick id e)
             [@lint.allow
               "A1: log msgf closure renders only when a reporter is \
                armed"]);
            self_restart t id
          end)

let handle_unlock t id =
  release_lock t id (Kernel.unlock t.k id);
  schedule t id

let[@lint.allow
     "A1: commit retires the transaction — final installs, release-all \
      regrants, history certification and pool returns run once per \
      transaction, off the per-operation path"] handle_commit t id =
  let k = t.k in
  let held = Kernel.commit k id in
  List.iter
    (fun (w, mode, e) -> process_one_grant t w mode e)
    (Lock_table.release_all k.locks id);
  (* Every entity whose holder set changed needs its waiters re-pointed. *)
  List.iter (fun (e, _) -> refresh_waiters t e) held;
  Kernel.retire k id;
  Log.debug (fun m -> m "[%d] T%d committed" k.tick id);
  t.commit_ticks.(id) <- k.tick;
  t.ops_committed <-
    t.ops_committed + Program.length (Txn_state.program (txn_state t id))

let exec_one t id =
  let ts = txn_state t id in
  match Txn_state.phase ts with
  | Txn_state.Committed -> ()
  | Txn_state.Growing | Txn_state.Shrinking -> (
      if Waits_for.is_blocked t.k.wfg id then
        (* Stale wakeup for a transaction that re-blocked; it will be
           rescheduled on grant. *)
        ()
      else
        match Txn_state.next_action ts with
        | Txn_state.Need_lock (mode, e) -> handle_lock_request t id mode e
        | Txn_state.Need_unlock _ -> handle_unlock t id
        | Txn_state.Data_step ->
            Txn_state.exec_data_op ts;
            schedule t id
        | Txn_state.At_end -> handle_commit t id)

let handle_timer t id =
  (* a Timeout_abort timer: restart the waiter if it is still stuck on
     the same wait *)
  let n =
    match t.cfg.intervention with
    | Timeout_abort n -> n
    | Detect | Wound_wait_c | Wait_die_c -> max_int
  in
  let since = t.k.blocked_since.(id) in
  if since >= 0 && Waits_for.is_blocked t.k.wfg id then
    if since + n <= t.k.tick then begin
      t.timeout_events <- t.timeout_events + 1;
      (Log.info (fun m -> m "[%d] T%d timed out; restarting" t.k.tick id)
       [@lint.allow
         "A1: log msgf closure renders only when a reporter is armed"]);
      self_restart t id
    end
    else Pqueue.push t.events ~priority:(since + n) ~tag:ev_timer ~a:id ~b:0

let[@lint.allow
     "A1: the sweep chain runs once per detection tick, not per \
      operation; sweep dispatch, outage checks and cadence adaptation \
      are off the request path"] handle_detect_tick t =
  (* the sweep chain: run (or miss, during an outage) a full pass and
     reschedule — self-perpetuating so deadlocked configurations always
     have a pending wake source *)
  match t.cfg.detection with
  | Detection_policy.Periodic n ->
      if in_detector_outage t then t.missed_passes <- t.missed_passes + 1
      else ignore (run_sweep t);
      Pqueue.push t.events ~priority:(t.k.tick + n) ~tag:ev_detect_tick ~a:0
        ~b:0
  | Detection_policy.Adaptive ->
      (if in_detector_outage t then t.missed_passes <- t.missed_passes + 1
       else
         let found = run_sweep t in
         let interval, quiet =
           Detection_policy.adapt ~found ~interval:t.detect_interval
             ~quiet:t.quiet_passes
         in
         t.detect_interval <- interval;
         t.quiet_passes <- quiet);
      Pqueue.push t.events ~priority:(t.k.tick + t.detect_interval)
        ~tag:ev_detect_tick ~a:0 ~b:0
  | Detection_policy.Eager | Detection_policy.Lazy_on_timeout _ -> ()

let[@lint.allow
     "A1: the opt-in lazy-probe policy resolves one reachable slice per \
      expired timer with backoff re-arming — probe bookkeeping is off \
      the request path"] handle_probe t id armed =
  match t.cfg.detection with
  | Detection_policy.Lazy_on_timeout { blocked_ticks; backoff } ->
      let k = t.k in
      let since = k.blocked_since.(id) in
      if since >= 0 && since = armed && Waits_for.is_blocked k.wfg id then
        if in_detector_outage t then begin
          (* detector down: the probe is lost; re-arm past the outage
             (the watchdog, re-armed at the outage end itself, checks
             first on recovery) *)
          t.missed_passes <- t.missed_passes + 1;
          Pqueue.push t.events
            ~priority:(outage_end t + blocked_ticks)
            ~tag:ev_probe ~a:id ~b:armed
        end
        else begin
          t.detection_passes <- t.detection_passes + 1;
          let found = resolve_probe t id in
          if found then begin
            t.lazy_false.(id) <- 0;
            (* resolution may have left [id] blocked (it survived as a
               non-victim): watch the still-running wait with a fresh
               timer *)
            let since' = k.blocked_since.(id) in
            if since' >= 0 && Waits_for.is_blocked k.wfg id then
              Pqueue.push t.events
                ~priority:(k.tick + blocked_ticks)
                ~tag:ev_probe ~a:id ~b:since'
          end
          else begin
            (* false alarm: the slice is acyclic, the wait is legitimate
               — double this transaction's next probe delay *)
            let n = t.lazy_false.(id) in
            t.lazy_false.(id) <- n + 1;
            Pqueue.push t.events
              ~priority:(k.tick + (blocked_ticks * (1 lsl min n backoff)))
              ~tag:ev_probe ~a:id ~b:armed
          end
        end
      else
        (* the wait this probe was armed for ended; a later block armed
           its own probe *)
        ()
  | Detection_policy.Eager | Detection_policy.Periodic _
  | Detection_policy.Adaptive ->
      ()

(* Ascending-id scan over tracked blocks, stopping at the first stalled
   transaction — the short-circuit the sorted fold had. Top-level and
   int-annotated so the per-arm watchdog check allocates nothing. *)
let rec watchdog_scan t bound (id : int) =
  let k = t.k in
  id < k.next_id
  && ((let since = k.blocked_since.(id) in
       since >= 0
       && k.tick - since >= bound
       && t.last_detect_tick <= since
       && Waits_for.is_blocked k.wfg id)
     || watchdog_scan t bound (id + 1))

let handle_watchdog t =
  (* the liveness net: a transaction blocked past the policy's stall
     bound with no full sweep since it blocked means passes were lost
     (outage, backed-off probes) — force one. Self-perpetuating at half
     the bound, so a stall is caught within 1.5x the bound of arising. *)
  let bound = Detection_policy.stall_bound t.cfg.detection in
  if in_detector_outage t then
    (* suppressed like any detection while the detector is down; re-armed
       for the first healthy tick so recovery sweeps promptly *)
    Pqueue.push t.events ~priority:(outage_end t) ~tag:ev_watchdog ~a:0 ~b:0
  else begin
    if watchdog_scan t bound 0 then begin
      t.watchdog_fires <- t.watchdog_fires + 1;
      (Log.info (fun m ->
           m "[%d] stall watchdog: forcing a full sweep" t.k.tick)
       [@lint.allow
         "A1: log msgf closure renders only when a reporter is armed"]);
      ignore (run_sweep t)
    end;
    Pqueue.push t.events
      ~priority:(t.k.tick + max (bound / 2) 1)
      ~tag:ev_watchdog ~a:0 ~b:0
  end

let[@hot] step t =
  if all_committed t then false
  else if not (Pqueue.pop t.events) then
    (* Live transactions with an empty event queue means a wakeup was
       lost — always a bug, never a valid quiescent state (an acyclic
       waits-for graph has a runnable transaction, and runnable
       transactions hold events). *)
    raise (Stuck "event queue drained with live transactions")
  else begin
    let tick = Pqueue.cur_prio t.events in
    if tick > t.cfg.max_ticks then false
    else begin
      t.k.tick <- max t.k.tick tick;
      let tag = Pqueue.cur_tag t.events in
      let a = Pqueue.cur_a t.events in
      let b = Pqueue.cur_b t.events in
      if tag = ev_exec then exec_one t a
      else if tag = ev_crash_txn then crash_transaction t a
      else if tag = ev_timer then handle_timer t a
      else if tag = ev_detect_tick then handle_detect_tick t
      else if tag = ev_probe then handle_probe t a b
      else handle_watchdog t;
      true
    end
  end

let run t =
  while step t do
    ()
  done

type stats = {
  ticks : int;
  commits : int;
  deadlocks : int;
  cycles_broken : int;
  rollbacks : int;
  requeues : int;
  ops_lost : int;
  overshoot_ops : int;
  ops_committed : int;
  ops_executed : int;
  blocks : int;
  peak_copies : int;
  optimal_resolutions : int;
  timeouts : int;
  preventions : int;
  txn_crashes : int;
  detection_passes : int;
  watchdog_fires : int;
  starvation_fallbacks : int;
  missed_passes : int;
  max_blocked_ticks : int;
  total_blocked_ticks : int;
  max_txn_rollbacks : int;
}

let set_deadlock_hook t hook = t.deadlock_hook <- Some hook

let submit_tick t id =
  if id >= 0 && id < t.k.next_id && t.submit_ticks.(id) >= 0 then
    Some t.submit_ticks.(id)
  else None

let commit_tick t id =
  if id >= 0 && id < t.k.next_id && t.commit_ticks.(id) >= 0 then
    Some t.commit_ticks.(id)
  else None

let latency t id =
  match (submit_tick t id, commit_tick t id) with
  | Some s, Some c -> Some (c - s)
  | _ -> None

let stats t =
  let k = t.k in
  let totals = Kernel.totals k in
  {
    ticks = k.tick;
    commits = k.commits;
    deadlocks = k.deadlocks;
    cycles_broken = t.cycles_broken;
    rollbacks = k.rollbacks;
    requeues = k.requeues;
    overshoot_ops = k.overshoot_ops;
    ops_lost = totals.Kernel.ops_lost;
    ops_committed = t.ops_committed;
    ops_executed = totals.Kernel.ops_executed;
    blocks = Lock_table.n_blocks k.locks;
    peak_copies = totals.Kernel.peak_copies;
    optimal_resolutions = t.optimal_resolutions;
    timeouts = t.timeout_events;
    preventions = t.prevention_events;
    txn_crashes = t.txn_crash_events;
    detection_passes = t.detection_passes;
    watchdog_fires = t.watchdog_fires;
    starvation_fallbacks = k.starvation_fallbacks;
    missed_passes = t.missed_passes;
    max_blocked_ticks = k.max_blocked_ticks;
    total_blocked_ticks = k.total_blocked_ticks;
    max_txn_rollbacks = totals.Kernel.max_txn_rollbacks;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "@[<v>ticks: %d@,commits: %d@,deadlocks: %d (cycles broken: %d)@,\
     rollbacks: %d (+%d requeues)@,ops lost: %d (overshoot %d)@,\
     ops committed: %d@,ops executed: %d@,blocks: %d@,peak copies: %d@,\
     optimal resolutions: %d@,timeouts: %d, preventions: %d@,\
     txn crashes: %d"
    s.ticks s.commits s.deadlocks s.cycles_broken s.rollbacks s.requeues
    s.ops_lost s.overshoot_ops s.ops_committed s.ops_executed s.blocks
    s.peak_copies s.optimal_resolutions s.timeouts s.preventions
    s.txn_crashes;
  (* The deferred-detection and blocked-duration lines appear only when a
     scheduled detector or timeout ran, keeping eager fixed-seed output
     byte-identical to the pre-policy engine. *)
  if
    s.detection_passes > 0 || s.watchdog_fires > 0 || s.missed_passes > 0
    || s.starvation_fallbacks > 0 || s.timeouts > 0
  then
    Fmt.pf ppf
      "@,detection passes: %d (missed: %d)@,\
       watchdog fires: %d, starvation fallbacks: %d@,\
       max blocked: %d ticks (total %d), max txn rollbacks: %d"
      s.detection_passes s.missed_passes s.watchdog_fires
      s.starvation_fallbacks s.max_blocked_ticks s.total_blocked_ticks
      s.max_txn_rollbacks;
  Fmt.pf ppf "@]"
