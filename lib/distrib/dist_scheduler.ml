module Store = Prb_storage.Store
module Program = Prb_txn.Program
module Lock_mode = Prb_txn.Lock_mode
module Lock_table = Prb_lock.Lock_table
module Waits_for = Prb_wfg.Waits_for
module Strategy = Prb_rollback.Strategy
module Txn_state = Prb_rollback.Txn_state
module History = Prb_history.History
module Heap = Prb_util.Heap
module Rng = Prb_util.Rng
module Util = Prb_util.Util
module Txn_id = Prb_txn.Txn_id
module Policy = Prb_core.Policy
module Resolver = Prb_core.Resolver
module Detection_policy = Prb_core.Detection_policy
module Fault = Prb_fault.Fault

type detection = Local_then_global of int | Wound_wait

type config = {
  n_sites : int;
  detection : detection;
  detection_policy : Detection_policy.t;
      (** cadence of the global-detector service under
          [Local_then_global]: [Eager] (default) fires a full round every
          [period] ticks — byte-identical to the pre-policy engine — while
          the deferred policies reschedule the service by their own rule
          (periodic cadence, adaptive interval, or lazy skip-until-
          someone-waited-long-enough), guarded by the stall watchdog.
          Site-local block-time detection is inline in the request path
          (not a service) and always runs. Ignored under [Wound_wait] *)
  starvation_limit : int option;
      (** [Some k]: a transaction rolled back [k] times becomes immune to
          victim selection (overridden only when a cycle offers nobody
          else); [None] (default) disables the guard *)
  strategy : Strategy.t;
  policy : Policy.t;
  seed : int;
  max_ticks : int;
  cycle_limit : int;
  restart_delay : int;
  faults : Fault.plan option;
  clock : (unit -> float) option;
      (** wall-clock source for the detection-cost accounting
          ({!stats.check_seconds}/{!stats.enumerate_seconds}); [None]
          (default) records zero *)
}

(* The default victim policy differs from the centralised engine's:
   under periodic global detection the resolver works from a stale
   snapshot with no meaningful "requester", and cost-optimising policies
   (min-cost, ordered-min-cost) then re-victimise the same cheap
   transaction round after round — the Figure 2 pathology resurrected by
   staleness (measured in experiment E10b). The age-based rule converges,
   which is exactly why the distributed literature the paper cites [1,7,
   10] uses timestamps for victim selection. *)
let default_config =
  {
    n_sites = 4;
    detection = Local_then_global 50;
    detection_policy = Detection_policy.Eager;
    starvation_limit = None;
    strategy = Strategy.Sdg;
    policy = Policy.Youngest;
    seed = 1;
    max_ticks = 1_000_000;
    cycle_limit = 256;
    restart_delay = 0;
    faults = None;
    clock = None;
  }

exception Stuck of string

(* Without a fault plan every remote interaction is synchronous (the seed
   model: messages are counted, never materialised). With a plan, remote
   lock requests, grant replies and unlock/commit releases become events
   that can be lost, duplicated or delayed; crashes and recoveries are
   events too. *)
type event =
  | Exec of int
  | Detector
  | Req_arrive of int * Lock_mode.t * Store.entity
      (** a (possibly retransmitted) remote lock request reaches the
          entity's site *)
  | Req_timeout of int * Store.entity
      (** requester-side probe: retransmit a lost request, rediscover a
          lost grant *)
  | Grant_arrive of int * Store.entity
      (** the site's grant reply reaches the requester *)
  | Release_arrive of int * Store.entity
  | Release_retry of int * Store.entity * int  (** attempt count *)
  | Crash of int * int  (** site, downtime *)
  | Recover of int

type meta = {
  home : int;
  mutable last_site : int;
  mutable pending : (Lock_mode.t * Store.entity) option;
      (** the remote request in flight (or queued remotely); the owner is
          parked until a grant is observed *)
  mutable attempt : int;  (** retransmissions of the pending request *)
}

type t = {
  cfg : config;
  store : Store.t;
  site_fn : Store.entity -> int;
  locks : Lock_table.t;
  wfg : Waits_for.t;
  txns : (int, Txn_state.t) Hashtbl.t;
  metas : (int, meta) Hashtbl.t;
  events : event Heap.t;
  hist : History.t;
  rng : Rng.t;
  faults : Fault.t option;
  down : bool array;
  up_at : int array;  (** recovery tick of a currently-down site *)
  blocked_since : (int, int) Hashtbl.t;
  mutable inflight_releases : int;
      (** release messages not yet delivered; the run is quiescent only
          once they drain, or end-of-run lock-table checks would see
          phantom rows *)
  mutable next_id : int;
  mutable tick : int;
  mutable commits : int;
  mutable deadlocks : int;
  mutable local_deadlocks : int;
  mutable global_deadlocks : int;
  mutable wounds : int;
  mutable rollback_events : int;
  mutable messages : int;
  mutable shipped_copies : int;
  mutable detection_rounds : int;
  mutable site_crashes : int;
  mutable site_recoveries : int;
  mutable purged_locks : int;
  mutable msgs_lost : int;
  mutable msgs_duplicated : int;
  mutable retransmissions : int;
  mutable timeout_aborts : int;
  mutable missed_rounds : int;
  rollback_counts : (int, int) Hashtbl.t;
      (** rollbacks per transaction, driving the starvation guard *)
  mutable last_round_tick : int;
      (** tick of the last global round that actually ran; the stall
          watchdog compares it against blocking times *)
  mutable detect_interval : int;
      (** current service cadence ([Adaptive]/[Lazy_on_timeout]) *)
  mutable quiet_rounds : int;  (** consecutive empty [Adaptive] rounds *)
  mutable watchdog_fires : int;
  mutable skipped_rounds : int;
      (** lazy firings that shipped nothing (nobody waited long enough) *)
  mutable starvation_fallbacks : int;
  mutable max_blocked_ticks : int;
  mutable total_blocked_ticks : int;
  mutable check_seconds : float;
      (** wall time inside the cycle checks (block-time would-deadlock
          and local-cycle probes, global-round censuses), when the config
          supplies a clock *)
  mutable check_calls : int;
  mutable enumerate_seconds : float;
      (** wall time enumerating cycles for the resolver (local and global
          rounds), when the config supplies a clock *)
  mutable enumerate_calls : int;
}

let default_site_of n_sites e =
  (Prb_storage.Value.as_int (Prb_storage.Value.text e)) mod n_sites

let create ?site_of config store =
  if config.n_sites < 1 then invalid_arg "Dist_scheduler: n_sites < 1";
  let site_fn =
    match site_of with
    | Some f -> f
    | None -> default_site_of config.n_sites
  in
  let faults =
    match config.faults with
    | Some p when not (Fault.is_none p) -> Some (Fault.make p)
    | Some _ | None -> None
  in
  let t =
    {
      cfg = config;
      store;
      site_fn;
      locks = Lock_table.create ~fair:true ();
      wfg = Waits_for.create ();
      txns = Hashtbl.create 64;
      metas = Hashtbl.create 64;
      events = Heap.create ();
      hist = History.create ();
      rng = Rng.make config.seed;
      faults;
      down = Array.make config.n_sites false;
      up_at = Array.make config.n_sites 0;
      blocked_since = Hashtbl.create 16;
      inflight_releases = 0;
      next_id = 0;
      tick = 0;
      commits = 0;
      deadlocks = 0;
      local_deadlocks = 0;
      global_deadlocks = 0;
      wounds = 0;
      rollback_events = 0;
      messages = 0;
      shipped_copies = 0;
      detection_rounds = 0;
      site_crashes = 0;
      site_recoveries = 0;
      purged_locks = 0;
      msgs_lost = 0;
      msgs_duplicated = 0;
      retransmissions = 0;
      timeout_aborts = 0;
      missed_rounds = 0;
      rollback_counts = Hashtbl.create 16;
      last_round_tick = 0;
      detect_interval =
        (match config.detection_policy with
        | Detection_policy.Eager ->
            (match config.detection with
            | Local_then_global period -> period
            | Wound_wait -> 0)
        | p -> Detection_policy.initial_interval p);
      quiet_rounds = 0;
      watchdog_fires = 0;
      skipped_rounds = 0;
      starvation_fallbacks = 0;
      max_blocked_ticks = 0;
      total_blocked_ticks = 0;
      check_seconds = 0.0;
      check_calls = 0;
      enumerate_seconds = 0.0;
      enumerate_calls = 0;
    }
  in
  (match config.detection with
  | Local_then_global period ->
      if period < 1 then invalid_arg "Dist_scheduler: period < 1";
      Heap.push t.events ~priority:period Detector
  | Wound_wait -> ());
  (match faults with
  | Some f ->
      List.iter
        (fun (c : Fault.site_crash) ->
          if c.Fault.site >= 0 && c.Fault.site < config.n_sites then
            Heap.push t.events ~priority:(max 1 c.Fault.at)
              (Crash (c.Fault.site, max 1 c.Fault.downtime)))
        (Fault.plan f).Fault.site_crashes
  | None -> ());
  t

let site_of t e = t.site_fn e
let waits_for t = t.wfg
let lock_table t = t.locks
let now t = t.tick
let n_committed t = t.commits
let all_committed t = t.commits = Hashtbl.length t.txns
let quiescent t = all_committed t && t.inflight_releases = 0
let history t = t.hist
let site_up t s = not t.down.(s)

let txn_state t id =
  match Hashtbl.find_opt t.txns id with
  | Some ts -> ts
  | None -> raise Not_found

let meta t id = Hashtbl.find t.metas id

let timeouts t =
  match t.faults with
  | Some f -> (Fault.plan f).Fault.timeouts
  | None -> Fault.default_timeouts

let push t ~at ev = Heap.push t.events ~priority:at ev

let push_release t ~at ev =
  t.inflight_releases <- t.inflight_releases + 1;
  push t ~at ev

(* A tracked wait ended: fold its duration into the blocked-time stats
   and drop the entry. Every unblocking path funnels through here. *)
let note_unblocked t id =
  match Hashtbl.find_opt t.blocked_since id with
  | None -> ()
  | Some since ->
      let d = t.tick - since in
      if d > t.max_blocked_ticks then t.max_blocked_ticks <- d;
      t.total_blocked_ticks <- t.total_blocked_ticks + d;
      Hashtbl.remove t.blocked_since id

let note_rollback t v =
  let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t.rollback_counts v) in
  Hashtbl.replace t.rollback_counts v n

let immune t v =
  match t.cfg.starvation_limit with
  | Some k ->
      Option.value ~default:0 (Hashtbl.find_opt t.rollback_counts v) >= k
  | None -> false

let submit t ~home program =
  if home < 0 || home >= t.cfg.n_sites then
    invalid_arg "Dist_scheduler.submit: bad home site";
  let id = t.next_id in
  t.next_id <- id + 1;
  let ts =
    Txn_state.create ~strategy:t.cfg.strategy ~id ~store:t.store program
  in
  Hashtbl.replace t.txns id ts;
  Hashtbl.replace t.metas id
    { home; last_site = home; pending = None; attempt = 0 };
  Waits_for.add_txn t.wfg id;
  push t ~at:(t.tick + 1) (Exec id);
  id

let schedule t id = push t ~at:(t.tick + 1) (Exec id)

let refresh_waiters t e =
  List.iter
    (fun (w, _) ->
      match Lock_table.blockers t.locks w with
      | [] -> ()
      | holders -> Waits_for.set_wait t.wfg ~waiter:w ~holders e)
    (Lock_table.waiters t.locks e)

(* --- Messaging ------------------------------------------------------- *)

(* The requester learns its lock was granted (synchronously, via a grant
   reply, or via a probe that rediscovers a grant whose reply was lost). *)
let notify_grant t w e =
  let ts = txn_state t w in
  let m = meta t w in
  m.pending <- None;
  m.attempt <- 0;
  Txn_state.lock_granted ts;
  (* The lock stream of [w] has now touched [e]'s site: partial
     strategies ship their bookkeeping along (Section 3.3). *)
  let s = site_of t e in
  if s <> m.last_site then begin
    if not (Strategy.equal t.cfg.strategy Strategy.Total) then begin
      t.messages <- t.messages + 1;
      t.shipped_copies <- t.shipped_copies + Txn_state.current_copies ts
    end;
    m.last_site <- s
  end;
  schedule t w

let send_grant t f w e =
  t.messages <- t.messages + 1;
  match Fault.roll f ~tick:t.tick with
  | Fault.Deliver d -> push t ~at:(t.tick + 1 + d) (Grant_arrive (w, e))
  | Fault.Duplicate (d1, d2) ->
      t.msgs_duplicated <- t.msgs_duplicated + 1;
      push t ~at:(t.tick + 1 + d1) (Grant_arrive (w, e));
      push t ~at:(t.tick + 1 + d2) (Grant_arrive (w, e))
  | Fault.Lose -> t.msgs_lost <- t.msgs_lost + 1
      (* the waiter's probe keeps running while its request is pending:
         it will rediscover the grant in the lock table *)

let process_grants t grants =
  List.iter
    (fun (w, mode, e) ->
      Waits_for.clear_wait t.wfg w;
      note_unblocked t w;
      History.note_grant t.hist ~tick:t.tick w e mode;
      match t.faults with
      | Some _ when t.down.(site_of t e) ->
          (* decided in memory that died with the site; the rebuild will
             purge the row and the waiter's probe re-requests *)
          t.msgs_lost <- t.msgs_lost + 1
      | Some f when site_of t e <> (meta t w).home -> send_grant t f w e
      | _ -> notify_grant t w e)
    grants

(* Table-side release plus propagation; no message accounting. *)
let do_release t id e =
  let grants = Lock_table.release t.locks id e in
  process_grants t (List.map (fun (w, m) -> (w, m, e)) grants);
  refresh_waiters t e

let release_lock t id e =
  if site_of t e <> (meta t id).home then t.messages <- t.messages + 1;
  do_release t id e

let transmit_release t f id e ~attempt =
  t.messages <- t.messages + 1;
  let to_ = (Fault.plan f).Fault.timeouts in
  if t.down.(site_of t e) then
    (* swallowed by the dead site; the row dies in the rebuild *)
    t.msgs_lost <- t.msgs_lost + 1
  else
    match Fault.roll f ~tick:t.tick with
    | Fault.Deliver d -> push_release t ~at:(t.tick + 1 + d) (Release_arrive (id, e))
    | Fault.Duplicate (d1, d2) ->
        t.msgs_duplicated <- t.msgs_duplicated + 1;
        push_release t ~at:(t.tick + 1 + d1) (Release_arrive (id, e));
        push_release t ~at:(t.tick + 1 + d2) (Release_arrive (id, e))
    | Fault.Lose ->
        t.msgs_lost <- t.msgs_lost + 1;
        push_release t
          ~at:(t.tick + to_.Fault.request_timeout + Fault.backoff to_ ~attempt)
          (Release_retry (id, e, attempt + 1))

(* Unlock/commit releases travel as (retried, idempotent) messages under
   a fault plan. Rollback releases never do: a transaction that rolled
   back re-executes and may re-request the same entity, and an in-flight
   release racing that re-request could destroy the fresh lock — so
   rollback is modelled as a reliable coordination round (which is what
   the per-site message accounting below already charges for). *)
let async_release t id e =
  match t.faults with
  | Some f when site_of t e <> (meta t id).home ->
      transmit_release t f id e ~attempt:0
  | _ -> release_lock t id e

let release_after_rollback t id e =
  if t.down.(site_of t e) then ()
    (* the site's table fragment is gone; recovery purges the row *)
  else release_lock t id e

let transmit_request t f id mode e =
  t.messages <- t.messages + 1;
  if t.down.(site_of t e) then t.msgs_lost <- t.msgs_lost + 1
  else
    match Fault.roll f ~tick:t.tick with
    | Fault.Deliver d -> push t ~at:(t.tick + 1 + d) (Req_arrive (id, mode, e))
    | Fault.Duplicate (d1, d2) ->
        t.msgs_duplicated <- t.msgs_duplicated + 1;
        push t ~at:(t.tick + 1 + d1) (Req_arrive (id, mode, e));
        push t ~at:(t.tick + 1 + d2) (Req_arrive (id, mode, e))
    | Fault.Lose -> t.msgs_lost <- t.msgs_lost + 1

let send_request t f id mode e =
  let m = meta t id in
  m.pending <- Some (mode, e);
  m.attempt <- 0;
  transmit_request t f id mode e;
  push t ~at:(t.tick + (timeouts t).Fault.request_timeout) (Req_timeout (id, e))

(* --- Rollback application (shared with both detection modes) --------- *)

let split_arcs ts entities =
  List.partition (fun e -> Txn_state.holds ts e <> None) entities

let release_cost t v entities =
  let ts = txn_state t v in
  let held, queued = split_arcs ts entities in
  let rollback_part =
    match held with
    | [] -> 0
    | es ->
        let target =
          List.fold_left
            (fun acc e -> min acc (Txn_state.rollback_target ts e))
            max_int es
        in
        Txn_state.cost_of_target ts target
  in
  rollback_part + if queued = [] then 0 else 1

let cancel_pending_request t v =
  match Lock_table.cancel_wait t.locks v with
  | Some (e, grants) ->
      process_grants t (List.map (fun (w, m) -> (w, m, e)) grants);
      refresh_waiters t e
  | None -> ()

let forget_wait t v =
  cancel_pending_request t v;
  let m = meta t v in
  (match m.pending with
  | Some (_, e)
    when Lock_table.holds t.locks v e <> None
         && Txn_state.holds (txn_state t v) e = None ->
      (* Granted table-side but the reply never reached us (lost or still
         in flight) and now we are rolling back: the lock would leak —
         hand it straight back. A down site's fragment is reconciled by
         its rebuild instead. *)
      History.discard t.hist v e;
      if not t.down.(site_of t e) then release_lock t v e
  | Some _ | None -> ());
  Waits_for.clear_wait t.wfg v;
  note_unblocked t v;
  m.pending <- None;
  m.attempt <- 0

let apply_partial_rollback t ~deferred ~stagger v entities =
  let ts = txn_state t v in
  let held, _queued = split_arcs ts entities in
  forget_wait t v;
  (match held with
  | [] -> ()
  | es ->
      let target =
        List.fold_left
          (fun acc e -> min acc (Txn_state.rollback_target ts e))
          (Txn_state.lock_index ts)
          es
      in
      let released = Txn_state.rollback_to ts target in
      t.rollback_events <- t.rollback_events + 1;
      note_rollback t v;
      (* One coordination message per remote site whose entities the
         rollback released. *)
      let home = (meta t v).home in
      let sites =
        List.sort_uniq Site_id.compare (List.map (site_of t) released)
        |> List.filter (fun s -> not (Site_id.equal s home))
      in
      t.messages <- t.messages + List.length sites;
      List.iter
        (fun e ->
          History.discard t.hist v e;
          release_after_rollback t v e)
        released);
  (* Deferred rounds restart a whole batch of victims at once; restarting
     them in lockstep replays the exact collision that formed the cycles
     (the workload is deterministic), so the batch limit-cycles forever.
     Stagger victims by their position in the batch and back repeat
     victims off quadratically — same scheme as the centralised engine. *)
  let backoff =
    if not deferred then 0
    else
      let n =
        match Hashtbl.find_opt t.rollback_counts v with
        | Some n -> n
        | None -> 0
      in
      stagger + (n * n)
  in
  push t ~at:(t.tick + 1 + t.cfg.restart_delay + backoff) (Exec v)

(* Full restart: site-crash of the home site, or a degraded-mode timeout
   abort while the global detector is out. *)
let restart_txn t id ~resume_at =
  let ts = txn_state t id in
  let m = meta t id in
  forget_wait t id;
  let released = Txn_state.rollback_to ts Txn_state.restart_target in
  t.rollback_events <- t.rollback_events + 1;
  note_rollback t id;
  List.iter
    (fun e ->
      History.discard t.hist id e;
      release_after_rollback t id e)
    released;
  m.last_site <- m.home;
  push t ~at:resume_at (Exec id)

(* How many rollbacks a victim may suffer before a deferred round stops
   rolling it back partially and escalates to a delayed full restart. A
   long backoff on a partial-rollback victim is a convoy — it still holds
   its surviving locks while it waits — so repeat victims instead release
   everything and re-enter after a quadratically growing delay, which
   breaks both the convoy and the re-victimisation loop the stale-snapshot
   cost policies are prone to (the E10b pathology). *)
let deferred_escalation = 4

let apply_rollback ?(deferred = false) ?(stagger = 0) t v entities =
  let prior =
    match Hashtbl.find_opt t.rollback_counts v with Some n -> n | None -> 0
  in
  if deferred && prior >= deferred_escalation then
    restart_txn t v
      ~resume_at:
        (t.tick + 1 + t.cfg.restart_delay + stagger + min 4096 (prior * prior))
  else apply_partial_rollback t ~deferred ~stagger v entities

(* --- Cycle detection ------------------------------------------------- *)

let resolver_cycles t requester =
  t.enumerate_calls <- t.enumerate_calls + 1;
  let raw =
    match t.cfg.clock with
    | None -> Waits_for.cycles_through ~limit:t.cfg.cycle_limit t.wfg requester
    | Some clk ->
        let t0 = clk () in
        let r =
          Waits_for.cycles_through ~limit:t.cfg.cycle_limit t.wfg requester
        in
        t.enumerate_seconds <- t.enumerate_seconds +. (clk () -. t0);
        r
  in
  let label u v =
    match Waits_for.wait_label t.wfg u v with
    | Some e -> e
    | None -> raise (Stuck "waits-for edge vanished during resolution")
  in
  List.map
    (fun cycle ->
      let rec arcs = function
        | [] -> []
        | [ last ] -> [ (requester, label last requester) ]
        | u :: (v :: _ as rest) -> (v, label u v) :: arcs rest
      in
      arcs cycle)
    raw

let is_local_cycle t cycle =
  match cycle with
  | [] -> true
  | (_, e0) :: rest ->
      let s = site_of t e0 in
      List.for_all (fun (_, e) -> site_of t e = s) rest

(* Under a deferred detection policy a round can face several cycles that
   accreted between rounds — the Section 3.2 multi-cycle regime — so the
   single-victim policies are routed through the minimum-cost vertex cut
   ([Ordered_min_cost], keeping Theorem 2's preemption order). Eager
   rounds keep the configured policy untouched. *)
let resolution_policy t cycles =
  if
    (not (Detection_policy.is_eager t.cfg.detection_policy))
    && (match cycles with _ :: _ :: _ -> true | [] | [ _ ] -> false)
    &&
    match t.cfg.policy with
    | Policy.Min_cost | Policy.Ordered_min_cost -> false
    | Policy.Requester | Policy.Youngest | Policy.Random_victim -> true
  then Policy.Ordered_min_cost
  else t.cfg.policy

let resolve_cycles ?(deferred = false) t requester cycles =
  t.deadlocks <- t.deadlocks + 1;
  let decision =
    Resolver.choose ~immune:(immune t)
      ~policy:(resolution_policy t cycles)
      ~requester
      ~entry_order:(fun v -> Txn_state.entry_order (txn_state t v))
      ~release_cost:(release_cost t) ~rng:t.rng cycles
  in
  if decision.Resolver.starved_fallback then
    t.starvation_fallbacks <- t.starvation_fallbacks + 1;
  List.iteri
    (fun i (v, entities) -> apply_rollback ~deferred ~stagger:i t v entities)
    decision.Resolver.victims

(* Detection accounting (DESIGN §14): the boolean questions — the
   block-time would-deadlock probe, the site-restricted local-cycle probe
   and a global round's cycle-membership census — are checks, billed
   here; the cycle enumeration the resolver consumes bills to the
   enumerate counters inside [resolver_cycles]. Victim selection and
   rollback application are resolution, not detection, and stay
   untimed. *)
let check t f =
  t.check_calls <- t.check_calls + 1;
  match t.cfg.clock with
  | None -> f ()
  | Some clk ->
      let t0 = clk () in
      let r = f () in
      t.check_seconds <- t.check_seconds +. (clk () -. t0);
      r

(* Local detection at block time: a site resolves instantly any cycle
   whose contested entities all live on it. The site-restricted probe
   answers "is there such a cycle?" without enumerating; when it says no,
   every enumerated cycle would have been filtered out as non-local, so
   enumeration runs only where a local cycle exists. *)
let rec resolve_local t requester round =
  if round > 1000 then raise (Stuck "local resolution did not converge");
  if
    Waits_for.is_blocked t.wfg requester
    && check t (fun () ->
           Waits_for.on_site_cycle t.wfg ~site_of:t.site_fn requester)
  then begin
    let local =
      List.filter (is_local_cycle t) (resolver_cycles t requester)
    in
    if local <> [] then begin
      t.local_deadlocks <- t.local_deadlocks + 1;
      resolve_cycles t requester local;
      resolve_local t requester (round + 1)
    end
  end

let local_check t id ~holders =
  if check t (fun () -> Waits_for.would_deadlock t.wfg ~waiter:id ~holders)
  then resolve_local t id 0

(* Ascending, and O(live): the waits-for graph keeps its vertex set
   sorted. *)
let blocked_txns t =
  List.filter (fun id -> Waits_for.is_blocked t.wfg id) (Waits_for.txns t.wfg)

(* The deadlock a global round resolves next: the lowest blocked
   transaction with a cycle the coordinator can see, with those cycles.
   One cycle-membership census, seeded with every blocked transaction,
   narrows the walk to the transactions that lie on a cycle at all —
   exactly those whose enumeration is non-empty — so the ascending walk
   picks what a scan enumerating every blocked transaction would, while
   enumerating only where a cycle exists. *)
let next_global_deadlock t ~visible =
  List.find_map
    (fun b ->
      match List.filter visible (resolver_cycles t b) with
      | [] -> None
      | cycles -> Some (b, cycles))
    (check t (fun () -> Waits_for.on_cycle_from t.wfg (blocked_txns t)))

(* Global detector: every site ships its waits-for edges to a coordinator
   which resolves everything it sees, local or not. Under a fault plan a
   site's shipment can be lost (and down sites ship nothing), so the
   coordinator only acts on cycles all of whose arcs it can see; missed
   cycles survive to the next round. *)
let run_global_detection t =
  t.detection_rounds <- t.detection_rounds + 1;
  let cycle_visible =
    match t.faults with
    | None ->
        t.messages <- t.messages + t.cfg.n_sites;
        fun _ -> true
    | Some f ->
        let vis =
          Array.init t.cfg.n_sites (fun s ->
              if t.down.(s) then false
              else begin
                t.messages <- t.messages + 1;
                Fault.shipment_arrives f ~tick:t.tick
              end)
        in
        fun cycle -> List.for_all (fun (_, e) -> vis.(site_of t e)) cycle
  in
  let round = ref 0 in
  let rec fixpoint () =
    incr round;
    if !round > 1000 then raise (Stuck "global detection did not converge");
    match next_global_deadlock t ~visible:cycle_visible with
    | None -> ()
    | Some (requester, cycles) ->
        t.global_deadlocks <- t.global_deadlocks + 1;
        resolve_cycles
          ~deferred:(not (Detection_policy.is_eager t.cfg.detection_policy))
          t requester cycles;
        fixpoint ()
  in
  fixpoint ()

(* Detector outage: no global rounds run; long-blocked transactions are
   timeout-aborted instead (graceful degradation — cross-site cycles
   cannot be seen, so break them blindly but fairly). *)
let degrade t =
  let to_ = timeouts t in
  List.iter
    (fun b ->
      match Hashtbl.find_opt t.blocked_since b with
      | Some since when t.tick - since >= to_.Fault.degraded_timeout ->
          t.timeout_aborts <- t.timeout_aborts + 1;
          restart_txn t b ~resume_at:(t.tick + 1 + t.cfg.restart_delay)
      | Some _ | None -> ())
    (blocked_txns t)

(* One firing of the global-detector service: decide per the detection
   policy whether a round actually runs, and return the delay until the
   next firing. The firing chain itself is policy-independent and
   self-perpetuating, so deferral can never leave deadlocked
   configurations without a pending wake source. *)
let detector_round t ~period =
  let next_delay () =
    match t.cfg.detection_policy with
    | Detection_policy.Eager -> period
    | Detection_policy.Periodic n -> n
    | Detection_policy.Adaptive | Detection_policy.Lazy_on_timeout _ ->
        t.detect_interval
  in
  match t.faults with
  | Some f when Fault.in_outage (Fault.plan f) t.tick ->
      (* detector service down, whatever the policy: degrade gracefully
         (timeout-abort long-blocked transactions) and keep the cadence —
         the first post-outage firing runs the watchdog check below *)
      t.missed_rounds <- t.missed_rounds + 1;
      degrade t;
      next_delay ()
  | _ -> (
      let run_round () =
        let before = t.deadlocks in
        run_global_detection t;
        t.last_round_tick <- t.tick;
        t.deadlocks > before
      in
      match t.cfg.detection_policy with
      | Detection_policy.Eager ->
          ignore (run_round ());
          period
      | Detection_policy.Periodic n ->
          ignore (run_round ());
          n
      | Detection_policy.Adaptive ->
          if run_round () then begin
            t.detect_interval <-
              max Detection_policy.adaptive_min (t.detect_interval / 2);
            t.quiet_rounds <- 0
          end
          else begin
            t.quiet_rounds <- t.quiet_rounds + 1;
            if t.quiet_rounds >= 2 then begin
              t.detect_interval <-
                min Detection_policy.adaptive_max (t.detect_interval * 2);
              t.quiet_rounds <- 0
            end
          end;
          t.detect_interval
      | Detection_policy.Lazy_on_timeout { blocked_ticks; backoff } ->
          let bound =
            Detection_policy.stall_bound t.cfg.detection_policy
          in
          let oldest, stalled =
            Util.fold_sorted Txn_id.compare
              (fun id since ((o, s) as acc) ->
                if Waits_for.is_blocked t.wfg id then
                  ( max o (t.tick - since),
                    s
                    || t.tick - since >= bound
                       && t.last_round_tick <= since )
                else acc)
              t.blocked_since (0, false)
          in
          if stalled then begin
            (* the watchdog: blocked past the stall bound with no round
               since — lost rounds (outage) or runaway backoff; force a
               round and reset the cadence *)
            t.watchdog_fires <- t.watchdog_fires + 1;
            ignore (run_round ());
            t.detect_interval <- blocked_ticks;
            blocked_ticks
          end
          else if oldest >= blocked_ticks then begin
            (if run_round () then t.detect_interval <- blocked_ticks
             else begin
               (* false alarm: long waits but no cycle — back off, capped
                  at half the stall bound so the watchdog stays behind *)
               let cap = blocked_ticks * (1 lsl min backoff 20) in
               t.detect_interval <- min cap (t.detect_interval * 2)
             end);
            t.detect_interval
          end
          else begin
            (* nobody has waited long enough to suspect a deadlock: skip
               the round, shipping no edges at all *)
            t.skipped_rounds <- t.skipped_rounds + 1;
            t.detect_interval
          end)

(* Wound-wait: an older requester wounds every younger blocker — holders
   roll back to release the entity, younger queued requests requeue
   behind. Shrinking transactions are immune (Section 2's no-rollback-
   after-unlock rule) and exempt: they issue no more lock requests, so
   they can never sit on a cycle, and they will release on their own.
   Afterwards every wait edge points to an older or shrinking
   transaction, and no cycle can ever close. *)
let wound_wait t requester e blockers =
  List.iter
    (fun b ->
      if
        b > requester
        && Txn_state.phase (txn_state t b) = Txn_state.Growing
      then begin
        t.wounds <- t.wounds + 1;
        if site_of t e <> (meta t b).home then t.messages <- t.messages + 1;
        apply_rollback t b [ e ]
      end)
    blockers

(* --- Site crash and recovery ----------------------------------------- *)

let partial_crash_rollback t id ~site =
  let ts = txn_state t id in
  let on_site =
    List.filter_map
      (fun (e, _, _) -> if site_of t e = site then Some e else None)
      (Txn_state.locks_held ts)
  in
  if on_site <> [] then begin
    forget_wait t id;
    let target =
      List.fold_left
        (fun acc e -> min acc (Txn_state.rollback_target ts e))
        (Txn_state.lock_index ts)
        on_site
    in
    let released = Txn_state.rollback_to ts target in
    t.rollback_events <- t.rollback_events + 1;
    note_rollback t id;
    List.iter
      (fun e ->
        History.discard t.hist id e;
        release_after_rollback t id e)
      released;
    push t ~at:(t.tick + 1 + t.cfg.restart_delay) (Exec id)
  end

let crash_site t s downtime =
  if not t.down.(s) then begin
    t.site_crashes <- t.site_crashes + 1;
    t.down.(s) <- true;
    t.up_at.(s) <- t.tick + downtime;
    push t ~at:(t.tick + downtime) (Recover s);
    let ids = Util.sorted_keys Txn_id.compare t.txns in
    (* Coordinators at the site die with it: every growing transaction
       homed there restarts from scratch once the site is back. Shrinking
       transactions are past their commit point and immune — their state
       survives in the recovery log. *)
    List.iter
      (fun id ->
        let ts = txn_state t id in
        if Txn_state.phase ts = Txn_state.Growing && (meta t id).home = s then
          restart_txn t id ~resume_at:(t.up_at.(s) + 1 + t.cfg.restart_delay))
      ids;
    (* Remote transactions lose whatever they hold at the site: roll each
       back (per strategy) to its last state not touching it. *)
    List.iter
      (fun id ->
        let ts = txn_state t id in
        if Txn_state.phase ts = Txn_state.Growing && (meta t id).home <> s then
          partial_crash_rollback t id ~site:s)
      ids
  end

(* Recovery rebuilds the site's lock-table fragment from surviving
   transaction state: queued requests died with the site (their owners
   retransmit on probe timeout), and holder rows not backed by a live
   transaction that still holds the entity are purged. Skipping this —
   plan.rebuild_locks = false — leaves phantom holders that block every
   later requester forever; the chaos harness exists to catch exactly
   that kind of recovery bug. *)
let rebuild_site_locks t s =
  List.iter
    (fun e ->
      if site_of t e = s then begin
        (* tail-first, so removing one waiter never grants another *)
        List.iter
          (fun (w, _) ->
            (match Lock_table.cancel_wait t.locks w with
            | Some (e', grants) ->
                process_grants t
                  (List.map (fun (x, m) -> (x, m, e')) grants);
                refresh_waiters t e'
            | None -> ());
            Waits_for.clear_wait t.wfg w;
            note_unblocked t w)
          (List.rev (Lock_table.waiters t.locks e));
        List.iter
          (fun (h, _) ->
            let stale =
              match Hashtbl.find_opt t.txns h with
              | None -> true
              | Some ts ->
                  Txn_state.phase ts = Txn_state.Committed
                  || Txn_state.holds ts e = None
            in
            if stale then begin
              t.purged_locks <- t.purged_locks + 1;
              History.discard t.hist h e;
              let grants = Lock_table.release t.locks h e in
              process_grants t (List.map (fun (w, m) -> (w, m, e)) grants)
            end)
          (Lock_table.holders t.locks e);
        refresh_waiters t e
      end)
    (Store.entities t.store)

let recover_site t s =
  t.down.(s) <- false;
  t.site_recoveries <- t.site_recoveries + 1;
  match t.faults with
  | Some f when not (Fault.plan f).Fault.rebuild_locks -> ()
  | _ -> rebuild_site_locks t s

(* --- Message handlers ------------------------------------------------- *)

let req_arrive t id mode e =
  if t.down.(site_of t e) then ()
  else
    let m = meta t id in
    match m.pending with
    | Some (mode', e') when String.equal e' e && Lock_mode.equal mode' mode -> (
        let f = match t.faults with Some f -> f | None -> assert false in
        match Lock_table.holds t.locks id e with
        | Some held
          when not
                 (Lock_mode.equal held Lock_mode.Shared
                 && Lock_mode.equal mode Lock_mode.Exclusive) ->
            (* a retransmission of a request already granted: the grant
               reply was lost — resend it (idempotent on arrival) *)
            send_grant t f id e
        | _ ->
            if Lock_table.waiting_for t.locks id <> None then
              () (* already queued: duplicate arrival *)
            else (
              match Lock_table.request t.locks id mode e with
              | Lock_table.Granted ->
                  History.note_grant t.hist ~tick:t.tick id e mode;
                  refresh_waiters t e;
                  send_grant t f id e
              | Lock_table.Blocked holders -> (
                  Waits_for.set_wait t.wfg ~waiter:id ~holders e;
                  Hashtbl.replace t.blocked_since id t.tick;
                  match t.cfg.detection with
                  | Wound_wait -> wound_wait t id e holders
                  | Local_then_global _ -> local_check t id ~holders)))
    | Some _ | None -> () (* the transaction moved on; stale request *)

let req_timeout t id e =
  match t.faults with
  | None -> ()
  | Some f -> (
      let m = meta t id in
      match m.pending with
      | Some (mode, e') when String.equal e' e ->
          let to_ = (Fault.plan f).Fault.timeouts in
          if t.down.(site_of t e) then
            (* the site cannot answer a probe; any table row we might see
               is dead memory — stay parked until after its rebuild *)
            push t ~at:(t.tick + to_.Fault.request_timeout)
              (Req_timeout (id, e))
          else
          let satisfied =
            match Lock_table.holds t.locks id e with
            | Some Lock_mode.Exclusive -> true
            | Some Lock_mode.Shared -> Lock_mode.equal mode Lock_mode.Shared
            | None -> false
          in
          if satisfied then begin
            (* grant reply lost: the probe rediscovers the lock *)
            Waits_for.clear_wait t.wfg id;
            note_unblocked t id;
            notify_grant t id e
          end
          else if Lock_table.waiting_for t.locks id <> None then
            (* queued at the site: stay parked, keep probing *)
            push t ~at:(t.tick + to_.Fault.request_timeout) (Req_timeout (id, e))
          else begin
            (* the request (or our queue entry, if the site crashed)
               vanished: retransmit with bounded exponential backoff *)
            m.attempt <- m.attempt + 1;
            t.retransmissions <- t.retransmissions + 1;
            transmit_request t f id mode e;
            push t
              ~at:
                (t.tick + to_.Fault.request_timeout
                + Fault.backoff to_ ~attempt:m.attempt)
              (Req_timeout (id, e))
          end
      | Some _ | None -> () (* stale probe *))

let grant_arrive t id e =
  match Lock_table.holds t.locks id e with
  | None -> () (* released or purged before the reply landed *)
  | Some held -> (
      let m = meta t id in
      let ts = txn_state t id in
      match m.pending with
      | Some (mode, e') when String.equal e' e ->
          let satisfies =
            match held with
            | Lock_mode.Exclusive -> true
            | Lock_mode.Shared -> Lock_mode.equal mode Lock_mode.Shared
          in
          if satisfies then begin
            Waits_for.clear_wait t.wfg id;
            note_unblocked t id;
            notify_grant t id e
          end
      | Some _ | None ->
          if Txn_state.holds ts e <> None then
            () (* duplicate of an accepted grant *)
          else begin
            (* granted to a transaction that rolled back meanwhile: hand
               the lock straight back so it cannot leak *)
            History.discard t.hist id e;
            release_lock t id e
          end)

let release_arrive t id e =
  if t.down.(site_of t e) then ()
    (* the site died again before the release landed; rebuild reconciles *)
  else
    match Lock_table.holds t.locks id e with
    | None -> () (* duplicate delivery, or the row was purged *)
    | Some _ -> do_release t id e

let release_retry t id e attempt =
  match t.faults with
  | None -> ()
  | Some f ->
      if Lock_table.holds t.locks id e = None then ()
      else begin
        t.retransmissions <- t.retransmissions + 1;
        transmit_release t f id e ~attempt
      end

(* --- Transaction stepping -------------------------------------------- *)

let handle_lock_request t id mode e =
  let ts = txn_state t id in
  let m = meta t id in
  match t.faults with
  | Some f when site_of t e <> m.home -> send_request t f id mode e
  | _ -> (
      if site_of t e <> m.home then t.messages <- t.messages + 2;
      match Lock_table.request t.locks id mode e with
      | Lock_table.Granted ->
          History.note_grant t.hist ~tick:t.tick id e mode;
          Txn_state.lock_granted ts;
          let s = site_of t e in
          if s <> m.last_site then begin
            if not (Strategy.equal t.cfg.strategy Strategy.Total) then begin
              t.messages <- t.messages + 1;
              t.shipped_copies <- t.shipped_copies + Txn_state.current_copies ts
            end;
            m.last_site <- s
          end;
          refresh_waiters t e;
          schedule t id
      | Lock_table.Blocked holders -> (
          Waits_for.set_wait t.wfg ~waiter:id ~holders e;
          Hashtbl.replace t.blocked_since id t.tick;
          match t.cfg.detection with
          | Wound_wait -> wound_wait t id e holders
          | Local_then_global _ -> local_check t id ~holders))

let handle_unlock t id =
  let ts = txn_state t id in
  let e, final = Txn_state.perform_unlock ts in
  (match final with Some v -> Store.install t.store e v | None -> ());
  History.note_release t.hist ~tick:t.tick id e;
  async_release t id e;
  schedule t id

let handle_commit t id =
  let ts = txn_state t id in
  let finals = Txn_state.commit ts in
  List.iter (fun (e, v) -> Store.install t.store e v) finals;
  let held = Lock_table.held_by t.locks id in
  List.iter (fun (e, _) -> History.note_release t.hist ~tick:t.tick id e) held;
  let home = (meta t id).home in
  (match t.faults with
  | None ->
      let grants = Lock_table.release_all t.locks id in
      List.iter
        (fun (e, _) -> if site_of t e <> home then t.messages <- t.messages + 1)
        held;
      process_grants t grants;
      List.iter (fun (e, _) -> refresh_waiters t e) held
  | Some f ->
      (* each remaining lock is released by its own (retried) message *)
      List.iter
        (fun (e, _) ->
          if site_of t e <> home then transmit_release t f id e ~attempt:0
          else do_release t id e)
        held);
  Waits_for.remove_txn t.wfg id;
  History.commit_txn t.hist id;
  t.commits <- t.commits + 1

let exec_one t id =
  let ts = txn_state t id in
  match Txn_state.phase ts with
  | Txn_state.Committed -> ()
  | Txn_state.Growing | Txn_state.Shrinking -> (
      let m = meta t id in
      if Waits_for.is_blocked t.wfg id then ()
      else if m.pending <> None then () (* awaiting a remote reply *)
      else if t.down.(m.home) then
        (* our own site is down: nothing runs until it recovers *)
        push t ~at:(t.up_at.(m.home) + 1) (Exec id)
      else
        match Txn_state.next_action ts with
        | Txn_state.Need_lock (mode, e) -> handle_lock_request t id mode e
        | Txn_state.Need_unlock _ -> handle_unlock t id
        | Txn_state.Data_step ->
            Txn_state.exec_data_op ts;
            schedule t id
        | Txn_state.At_end -> handle_commit t id)

let step t =
  if quiescent t then false
  else
    match Heap.pop t.events with
    | None -> raise (Stuck "event queue drained with live transactions")
    | Some (tick, ev) ->
        if tick > t.cfg.max_ticks then false
        else begin
          t.tick <- max t.tick tick;
          (match ev with
          | Exec id -> exec_one t id
          | Detector -> (
              match t.cfg.detection with
              | Local_then_global period ->
                  let delay = detector_round t ~period in
                  push t ~at:(t.tick + delay) Detector
              | Wound_wait -> ())
          | Req_arrive (id, mode, e) -> req_arrive t id mode e
          | Req_timeout (id, e) -> req_timeout t id e
          | Grant_arrive (id, e) -> grant_arrive t id e
          | Release_arrive (id, e) ->
              t.inflight_releases <- t.inflight_releases - 1;
              release_arrive t id e
          | Release_retry (id, e, attempt) ->
              t.inflight_releases <- t.inflight_releases - 1;
              release_retry t id e attempt
          | Crash (s, downtime) -> crash_site t s downtime
          | Recover s -> recover_site t s);
          true
        end

let run t =
  while step t do
    ()
  done

type stats = {
  ticks : int;
  commits : int;
  deadlocks : int;
  local_deadlocks : int;
  global_deadlocks : int;
  wounds : int;
  rollbacks : int;
  ops_lost : int;
  messages : int;
  shipped_copies : int;
  detection_rounds : int;
  site_crashes : int;
  site_recoveries : int;
  purged_locks : int;
  msgs_lost : int;
  msgs_duplicated : int;
  retransmissions : int;
  timeout_aborts : int;
  missed_rounds : int;
  deferred_detection : bool;
      (** the run used a non-[Eager] detection policy (drives which stat
          lines print, keeping eager output byte-identical) *)
  watchdog_fires : int;
  skipped_rounds : int;
  starvation_fallbacks : int;
  max_blocked_ticks : int;
  total_blocked_ticks : int;
  max_txn_rollbacks : int;
  check_seconds : float;
      (** wall time inside the cycle checks; 0 unless the config supplies
          a {!config.clock} *)
  check_calls : int;  (** cycle checks run (probes plus censuses) *)
  enumerate_seconds : float;
      (** wall time enumerating cycles for the resolver, local checks and
          global rounds alike; 0 unless the config supplies a clock *)
  enumerate_calls : int;  (** cycle enumerations run *)
}

let stats t =
  let fold f init =
    Util.fold_sorted Txn_id.compare (fun _ ts acc -> f acc ts) t.txns init
  in
  {
    ticks = t.tick;
    commits = t.commits;
    deadlocks = t.deadlocks;
    local_deadlocks = t.local_deadlocks;
    global_deadlocks = t.global_deadlocks;
    wounds = t.wounds;
    rollbacks = t.rollback_events;
    ops_lost = fold (fun acc ts -> acc + Txn_state.ops_lost ts) 0;
    messages = t.messages;
    shipped_copies = t.shipped_copies;
    detection_rounds = t.detection_rounds;
    site_crashes = t.site_crashes;
    site_recoveries = t.site_recoveries;
    purged_locks = t.purged_locks;
    msgs_lost = t.msgs_lost;
    msgs_duplicated = t.msgs_duplicated;
    retransmissions = t.retransmissions;
    timeout_aborts = t.timeout_aborts;
    missed_rounds = t.missed_rounds;
    deferred_detection =
      not (Detection_policy.is_eager t.cfg.detection_policy);
    watchdog_fires = t.watchdog_fires;
    skipped_rounds = t.skipped_rounds;
    starvation_fallbacks = t.starvation_fallbacks;
    max_blocked_ticks = t.max_blocked_ticks;
    total_blocked_ticks = t.total_blocked_ticks;
    max_txn_rollbacks =
      Util.fold_sorted Txn_id.compare
        (fun _ n acc -> max acc n)
        t.rollback_counts 0;
    check_seconds = t.check_seconds;
    check_calls = t.check_calls;
    enumerate_seconds = t.enumerate_seconds;
    enumerate_calls = t.enumerate_calls;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "@[<v>ticks: %d@,commits: %d@,deadlocks: %d (local %d, global %d)@,\
     wounds: %d@,rollbacks: %d@,ops lost: %d@,messages: %d@,\
     shipped copies: %d@,detection rounds: %d@,\
     crashes: %d (recovered %d, purged locks %d)@,\
     msgs lost: %d, duplicated: %d, retransmissions: %d@,\
     timeout aborts: %d, missed detector rounds: %d"
    s.ticks s.commits s.deadlocks s.local_deadlocks s.global_deadlocks
    s.wounds s.rollbacks s.ops_lost s.messages s.shipped_copies
    s.detection_rounds s.site_crashes s.site_recoveries s.purged_locks
    s.msgs_lost s.msgs_duplicated s.retransmissions s.timeout_aborts
    s.missed_rounds;
  if s.deferred_detection then
    Fmt.pf ppf
      "@,skipped rounds: %d, watchdog fires: %d, starvation fallbacks: %d@,\
       max blocked: %d ticks (total %d), max txn rollbacks: %d"
      s.skipped_rounds s.watchdog_fires s.starvation_fallbacks
      s.max_blocked_ticks s.total_blocked_ticks s.max_txn_rollbacks;
  Fmt.pf ppf "@]"
