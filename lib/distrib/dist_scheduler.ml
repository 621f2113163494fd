module Store = Prb_storage.Store
module Lock_mode = Prb_txn.Lock_mode
module Lock_table = Prb_lock.Lock_table
module Waits_for = Prb_wfg.Waits_for
module Strategy = Prb_rollback.Strategy
module Txn_state = Prb_rollback.Txn_state
module History = Prb_history.History
module Heap = Prb_util.Heap
module Policy = Prb_core.Policy
module Detection_policy = Prb_core.Detection_policy
module Kernel = Prb_core.Kernel
module Fault = Prb_fault.Fault
module Round = Prb_graph.Round

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
    faults = None;
    clock = None;
  }

exception Stuck = Kernel.Stuck

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

(* The fill of [metas] slots no transaction occupies yet; never read. *)
let no_meta = { home = -1; last_site = -1; pending = None; attempt = 0 }

type t = {
  cfg : config;
  k : Kernel.t;
  site_fn : Store.entity -> int;
  mutable metas : meta array;  (** indexed by transaction id *)
  events : event Heap.t;
  faults : Fault.t option;
  down : bool array;
  up_at : int array;  (** recovery tick of a currently-down site *)
  mutable n_down : int;
      (** sites currently down; the run is quiescent only once they all
          recovered, or a release swallowed by a dead site would leave its
          holder row behind for want of the recovery rebuild *)
  mutable inflight_releases : int;
      (** release messages not yet delivered; the run is quiescent only
          once they drain, or end-of-run lock-table checks would see
          phantom rows *)
  mutable local_deadlocks : int;
  mutable global_deadlocks : int;
  mutable wounds : int;
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
  mutable last_round_tick : int;
      (** tick of the last global round that actually ran; the stall
          watchdog compares it against blocking times *)
  mutable detect_interval : int;
      (** current service cadence ([Adaptive]/[Lazy_on_timeout]) *)
  mutable quiet_rounds : int;  (** consecutive empty [Adaptive] rounds *)
  mutable watchdog_fires : int;
  mutable skipped_rounds : int;
      (** lazy firings that shipped nothing (nobody waited long enough) *)
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
  let deferred =
    match config.detection with
    | Local_then_global _ ->
        not (Detection_policy.is_eager config.detection_policy)
    | Wound_wait -> false
  in
  let t =
    {
      cfg = config;
      k =
        Kernel.create ~fair:true ~strategy:config.strategy
          ~policy:config.policy ~starvation_limit:config.starvation_limit
          ~seed:config.seed ~cycle_limit:config.cycle_limit ~deferred
          ~clock:config.clock store;
      site_fn;
      metas = [||];
      events = Heap.create ();
      faults;
      down = Array.make config.n_sites false;
      up_at = Array.make config.n_sites 0;
      n_down = 0;
      inflight_releases = 0;
      local_deadlocks = 0;
      global_deadlocks = 0;
      wounds = 0;
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
let waits_for t = t.k.wfg
let lock_table t = t.k.locks
let cut_nodes t = Kernel.cut_nodes t.k
let cut_cycles t = Kernel.cut_cycles t.k
let now t = t.k.tick
let n_committed t = t.k.commits
let all_committed t = Kernel.all_committed t.k
let quiescent t = all_committed t && t.inflight_releases = 0 && t.n_down = 0
let history t = t.k.hist
let site_up t s = not t.down.(s)
let txn_state t id = Kernel.txn t.k id
let meta t id = t.metas.(id)

let timeouts t =
  match t.faults with
  | Some f -> (Fault.plan f).Fault.timeouts
  | None -> Fault.default_timeouts

let push t ~at ev = Heap.push t.events ~priority:at ev

let push_release t ~at ev =
  t.inflight_releases <- t.inflight_releases + 1;
  push t ~at ev

let schedule t id = push t ~at:(t.k.tick + 1) (Exec id)

let submit t ~home program =
  if home < 0 || home >= t.cfg.n_sites then
    invalid_arg "Dist_scheduler.submit: bad home site";
  let id = Kernel.admit t.k program in
  t.metas <- Kernel.grow t.k no_meta t.metas;
  t.metas.(id) <- { home; last_site = home; pending = None; attempt = 0 };
  schedule t id;
  id

let refresh_waiters t e =
  List.iter
    (fun (w, _) ->
      match Lock_table.blockers t.k.locks w with
      | [] -> ()
      | holders -> Waits_for.set_wait t.k.wfg ~waiter:w ~holders e)
    (Lock_table.waiters t.k.locks e)

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

(* One message through the fault plan's network: delivered after its
   delay by [push] (twice, when duplicated), or lost. Returns whether it
   was lost. *)
let transmit t f push ev =
  let tick = t.k.tick in
  match Fault.roll f ~tick with
  | Fault.Deliver d ->
      push t ~at:(tick + 1 + d) ev;
      false
  | Fault.Duplicate (d1, d2) ->
      t.msgs_duplicated <- t.msgs_duplicated + 1;
      push t ~at:(tick + 1 + d1) ev;
      push t ~at:(tick + 1 + d2) ev;
      false
  | Fault.Lose ->
      t.msgs_lost <- t.msgs_lost + 1;
      true

(* A lost grant reply needs no retry: the waiter's probe keeps running
   while its request is pending, and rediscovers the grant in the lock
   table. *)
let send_grant t f w e =
  t.messages <- t.messages + 1;
  ignore (transmit t f push (Grant_arrive (w, e)))

(* The lock table granted [w]'s queued request on [e]. *)
let process_grant t w mode e =
  Kernel.granted t.k w mode e;
  match t.faults with
  | Some _ when t.down.(site_of t e) ->
      (* decided in memory that died with the site; the rebuild will
         purge the row and the waiter's probe re-requests *)
      t.msgs_lost <- t.msgs_lost + 1
  | Some f when site_of t e <> (meta t w).home -> send_grant t f w e
  | _ -> notify_grant t w e

(* [Lock_table.release]/[cancel_wait] report the grants on one entity. *)
let process_grants t e grants =
  List.iter (fun (w, mode) -> process_grant t w mode e) grants

(* Table-side release plus propagation; no message accounting. *)
let do_release t id e =
  process_grants t e (Lock_table.release t.k.locks id e);
  refresh_waiters t e

let release_lock t id e =
  if site_of t e <> (meta t id).home then t.messages <- t.messages + 1;
  do_release t id e

let transmit_release t f id e ~attempt =
  t.messages <- t.messages + 1;
  if t.down.(site_of t e) then
    (* swallowed by the dead site; the row dies in the rebuild *)
    t.msgs_lost <- t.msgs_lost + 1
  else if transmit t f push_release (Release_arrive (id, e)) then
    let to_ = (Fault.plan f).Fault.timeouts in
    push_release t
      ~at:(t.k.tick + to_.Fault.request_timeout + Fault.backoff to_ ~attempt)
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

(* The locks a rollback of [id] gave up. A down site's table fragment is
   gone; recovery purges the row. *)
let release_after_rollback t id released =
  List.iter
    (fun e ->
      History.discard t.k.hist id e;
      if not t.down.(site_of t e) then release_lock t id e)
    released

let transmit_request t f id mode e =
  t.messages <- t.messages + 1;
  if t.down.(site_of t e) then t.msgs_lost <- t.msgs_lost + 1
  else ignore (transmit t f push (Req_arrive (id, mode, e)))

let send_request t f id mode e =
  let m = meta t id in
  m.pending <- Some (mode, e);
  m.attempt <- 0;
  transmit_request t f id mode e;
  push t
    ~at:(t.k.tick + (timeouts t).Fault.request_timeout)
    (Req_timeout (id, e))

(* --- Rollback application (shared with both detection modes) --------- *)

(* Drop [v]'s queued request, granting whoever it was blocking, and end
   its wait. *)
let cancel_wait t v =
  (match Lock_table.cancel_wait t.k.locks v with
  | Some (e, grants) ->
      process_grants t e grants;
      refresh_waiters t e
  | None -> ());
  Kernel.unblock t.k v

let forget_wait t v =
  cancel_wait t v;
  let m = meta t v in
  (match m.pending with
  | Some (_, e)
    when Lock_table.holds t.k.locks v e <> None
         && Txn_state.holds (txn_state t v) e = None ->
      (* Granted table-side but the reply never reached us (lost or still
         in flight) and now we are rolling back: the lock would leak —
         hand it straight back. A down site's fragment is reconciled by
         its rebuild instead. *)
      History.discard t.k.hist v e;
      if not t.down.(site_of t e) then release_lock t v e
  | Some _ | None -> ());
  m.pending <- None;
  m.attempt <- 0

module Rollback = Kernel.Rollback (struct
  type nonrec engine = t

  let kernel t = t.k
  let abandon_wait = forget_wait

  (* A full restart (home-site crash, degraded-mode timeout abort,
     escalation) sends the lock stream home; a partial rollback pays one
     coordination message per remote site whose entities it released. *)
  let release t v ~restart released =
    let m = meta t v in
    if restart then m.last_site <- m.home
    else
      t.messages <-
        t.messages
        + List.length
            (List.sort_uniq Site_id.compare (List.map (site_of t) released)
            |> List.filter (fun s -> not (Site_id.equal s m.home)));
    release_after_rollback t v released

  let resume t v ~at = push t ~at (Exec v)
end)

(* --- Cycle detection ------------------------------------------------- *)

(* Cycle [c] of the round is local: every arc label lives on the site of
   the first. *)
let is_local_cycle t (r : Round.t) c = Round.same_arcs r c t.site_fn

(* Under a deferred detection policy every round — the global rounds and
   the site-local block-time rounds alike — is a deferred round of the
   kernel: it enumerates at most [Kernel.deferred_cycle_budget] cycles,
   routes several of them through the minimum-cost vertex cut (see
   [Kernel.choose]), and backs off or escalates its repeat victims. *)
let resolve_cycles t requester round =
  Rollback.apply_victims t (Kernel.choose t.k requester round)

(* Local detection at block time: a site resolves instantly any cycle
   whose contested entities all live on it. The site-restricted probe
   answers "is there such a cycle?" without enumerating; when it says no,
   every enumerated cycle would have been filtered out as non-local, so
   enumeration runs only where a local cycle exists. *)
let rec resolve_local t requester round =
  if round > 1000 then raise (Stuck "local resolution did not converge");
  if
    Waits_for.is_blocked t.k.wfg requester
    && Kernel.on_site_cycle t.k ~site_of:t.site_fn requester
  then begin
    let cycles = Kernel.cycles t.k requester in
    Round.filter cycles (is_local_cycle t cycles);
    if cycles.Round.ncyc > 0 then begin
      t.local_deadlocks <- t.local_deadlocks + 1;
      resolve_cycles t requester cycles;
      resolve_local t requester (round + 1)
    end
  end

let local_check t id ~holders =
  if Kernel.would_deadlock t.k ~waiter:id ~holders then resolve_local t id 0

(* Ascending, and O(live): the waits-for graph keeps its vertex set
   sorted. *)
let blocked_txns t =
  List.filter
    (fun id -> Waits_for.is_blocked t.k.wfg id)
    (Waits_for.txns t.k.wfg)

(* The deadlock a global round resolves next: the lowest blocked
   transaction with a cycle the coordinator can see, its visible cycles
   left in the kernel's round.
   One cycle-membership census, seeded with every blocked transaction,
   narrows the walk to the transactions that lie on a cycle at all —
   exactly those whose enumeration is non-empty — so the ascending walk
   picks what a scan enumerating every blocked transaction would, while
   enumerating only where a cycle exists. *)
let next_deadlock t ~visible =
  List.find_opt
    (fun b ->
      let round = Kernel.cycles t.k b in
      Round.filter round (visible round);
      round.Round.ncyc > 0)
    (Kernel.on_cycle_from t.k (blocked_txns t))

let next_global_deadlock t ~visible =
  Option.map
    (fun b -> (b, Round.to_cycles t.k.Kernel.round))
    (next_deadlock t ~visible:(fun r c -> visible (Round.cycle r c)))

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
        fun _ _ -> true
    | Some f ->
        let vis =
          Array.init t.cfg.n_sites (fun s ->
              if t.down.(s) then false
              else begin
                t.messages <- t.messages + 1;
                Fault.shipment_arrives f ~tick:t.k.tick
              end)
        in
        fun r c -> Round.all_arcs r c (fun e -> vis.(site_of t e))
  in
  let round = ref 0 in
  let rec fixpoint () =
    incr round;
    if !round > 1000 then raise (Stuck "global detection did not converge");
    match next_deadlock t ~visible:cycle_visible with
    | None -> ()
    | Some requester ->
        t.global_deadlocks <- t.global_deadlocks + 1;
        resolve_cycles t requester t.k.Kernel.round;
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
      let since = t.k.blocked_since.(b) in
      if since >= 0 && t.k.tick - since >= to_.Fault.degraded_timeout then begin
        t.timeout_aborts <- t.timeout_aborts + 1;
        Rollback.restart t b ~at:(t.k.tick + 1)
      end)
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
  | Some f when Fault.in_outage (Fault.plan f) t.k.tick ->
      (* detector service down, whatever the policy: degrade gracefully
         (timeout-abort long-blocked transactions) and keep the cadence —
         the first post-outage firing runs the watchdog check below *)
      t.missed_rounds <- t.missed_rounds + 1;
      degrade t;
      next_delay ()
  | _ -> (
      let run_round () =
        let before = t.k.deadlocks in
        run_global_detection t;
        t.last_round_tick <- t.k.tick;
        t.k.deadlocks > before
      in
      match t.cfg.detection_policy with
      | Detection_policy.Eager ->
          ignore (run_round ());
          period
      | Detection_policy.Periodic n ->
          ignore (run_round ());
          n
      | Detection_policy.Adaptive ->
          let interval, quiet =
            Detection_policy.adapt ~found:(run_round ())
              ~interval:t.detect_interval ~quiet:t.quiet_rounds
          in
          t.detect_interval <- interval;
          t.quiet_rounds <- quiet;
          t.detect_interval
      | Detection_policy.Lazy_on_timeout { blocked_ticks; backoff } ->
          let bound =
            Detection_policy.stall_bound t.cfg.detection_policy
          in
          let tick = t.k.tick in
          let oldest, stalled =
            List.fold_left
              (fun ((o, s) as acc) id ->
                let since = t.k.blocked_since.(id) in
                if since >= 0 then
                  ( max o (tick - since),
                    s || (tick - since >= bound && t.last_round_tick <= since)
                  )
                else acc)
              (0, false) (blocked_txns t)
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
        Rollback.apply_rollback t b [ e ]
      end)
    blockers

(* --- Site crash and recovery ----------------------------------------- *)

let partial_crash_rollback t id ~site =
  let on_site =
    List.filter_map
      (fun (e, _, _) -> if site_of t e = site then Some e else None)
      (Txn_state.locks_held (txn_state t id))
  in
  if on_site <> [] then begin
    forget_wait t id;
    release_after_rollback t id (Kernel.release_arcs t.k id on_site);
    push t ~at:(t.k.tick + 1) (Exec id)
  end

let crash_site t s downtime =
  if not t.down.(s) then begin
    t.site_crashes <- t.site_crashes + 1;
    t.down.(s) <- true;
    t.n_down <- t.n_down + 1;
    t.up_at.(s) <- t.k.tick + downtime;
    push t ~at:(t.k.tick + downtime) (Recover s);
    let n = t.k.next_id in
    (* Coordinators at the site die with it: every growing transaction
       homed there restarts from scratch once the site is back. Shrinking
       transactions are past their commit point and immune — their state
       survives in the recovery log. *)
    for id = 0 to n - 1 do
      if
        Txn_state.phase (txn_state t id) = Txn_state.Growing
        && (meta t id).home = s
      then Rollback.restart t id ~at:(t.up_at.(s) + 1)
    done;
    (* Remote transactions lose whatever they hold at the site: roll each
       back (per strategy) to its last state not touching it. *)
    for id = 0 to n - 1 do
      if
        Txn_state.phase (txn_state t id) = Txn_state.Growing
        && (meta t id).home <> s
      then partial_crash_rollback t id ~site:s
    done
  end

(* Recovery rebuilds the site's lock-table fragment from surviving
   transaction state: queued requests died with the site (their owners
   retransmit on probe timeout), and holder rows not backed by a live
   transaction that still holds the entity are purged. Skipping this —
   plan.rebuild_locks = false — leaves phantom holders that block every
   later requester forever; the chaos harness exists to catch exactly
   that kind of recovery bug. *)
let rebuild_site_locks t s =
  let locks = t.k.locks in
  List.iter
    (fun e ->
      if site_of t e = s then begin
        (* tail-first, so removing one waiter never grants another *)
        List.iter
          (fun (w, _) -> cancel_wait t w)
          (List.rev (Lock_table.waiters locks e));
        List.iter
          (fun (h, _) ->
            let stale =
              match t.k.txns.(h) with
              | None -> true
              | Some ts ->
                  Txn_state.phase ts = Txn_state.Committed
                  || Txn_state.holds ts e = None
            in
            if stale then begin
              t.purged_locks <- t.purged_locks + 1;
              History.discard t.k.hist h e;
              process_grants t e (Lock_table.release locks h e)
            end)
          (Lock_table.holders locks e);
        refresh_waiters t e
      end)
    (Store.entities t.k.store)

let recover_site t s =
  t.down.(s) <- false;
  t.n_down <- t.n_down - 1;
  t.site_recoveries <- t.site_recoveries + 1;
  match t.faults with
  | Some f when not (Fault.plan f).Fault.rebuild_locks -> ()
  | _ -> rebuild_site_locks t s

(* --- Message handlers ------------------------------------------------- *)

(* A request blocked at the entity's site: wait, then detect or wound. *)
let blocked t id e holders =
  Waits_for.set_wait t.k.wfg ~waiter:id ~holders e;
  Kernel.note_blocked t.k id;
  match t.cfg.detection with
  | Wound_wait -> wound_wait t id e holders
  | Local_then_global _ -> local_check t id ~holders

(* Does a held lock grant a request in [mode]? All but a shared lock
   under an exclusive request do. *)
let satisfies held mode =
  match held with
  | Lock_mode.Exclusive -> true
  | Lock_mode.Shared -> Lock_mode.equal mode Lock_mode.Shared

(* A grant whose reply was pending reached the requester. *)
let accept_grant t id e =
  Kernel.unblock t.k id;
  notify_grant t id e

let req_arrive t id mode e =
  if t.down.(site_of t e) then ()
  else
    let m = meta t id in
    match m.pending with
    | Some (mode', e') when String.equal e' e && Lock_mode.equal mode' mode -> (
        let f = match t.faults with Some f -> f | None -> assert false in
        let locks = t.k.locks in
        match Lock_table.holds locks id e with
        | Some held when satisfies held mode ->
            (* a retransmission of a request already granted: the grant
               reply was lost — resend it (idempotent on arrival) *)
            send_grant t f id e
        | _ ->
            if Lock_table.waiting_for locks id <> None then
              () (* already queued: duplicate arrival *)
            else (
              match Lock_table.request locks id mode e with
              | Lock_table.Granted ->
                  History.note_grant t.k.hist ~tick:t.k.tick id e mode;
                  refresh_waiters t e;
                  send_grant t f id e
              | Lock_table.Blocked holders -> blocked t id e holders))
    | Some _ | None -> () (* the transaction moved on; stale request *)

let req_timeout t id e =
  match t.faults with
  | None -> ()
  | Some f -> (
      let m = meta t id in
      match m.pending with
      | Some (mode, e') when String.equal e' e ->
          let to_ = (Fault.plan f).Fault.timeouts in
          let tick = t.k.tick in
          if t.down.(site_of t e) then
            (* the site cannot answer a probe; any table row we might see
               is dead memory — stay parked until after its rebuild *)
            push t ~at:(tick + to_.Fault.request_timeout)
              (Req_timeout (id, e))
          else
          let satisfied =
            match Lock_table.holds t.k.locks id e with
            | Some held -> satisfies held mode
            | None -> false
          in
          if satisfied then
            (* grant reply lost: the probe rediscovers the lock *)
            accept_grant t id e
          else if Lock_table.waiting_for t.k.locks id <> None then
            (* queued at the site: stay parked, keep probing *)
            push t ~at:(tick + to_.Fault.request_timeout) (Req_timeout (id, e))
          else begin
            (* the request (or our queue entry, if the site crashed)
               vanished: retransmit with bounded exponential backoff *)
            m.attempt <- m.attempt + 1;
            t.retransmissions <- t.retransmissions + 1;
            transmit_request t f id mode e;
            push t
              ~at:
                (tick + to_.Fault.request_timeout
                + Fault.backoff to_ ~attempt:m.attempt)
              (Req_timeout (id, e))
          end
      | Some _ | None -> () (* stale probe *))

let grant_arrive t id e =
  match Lock_table.holds t.k.locks id e with
  | None -> () (* released or purged before the reply landed *)
  | Some held -> (
      let m = meta t id in
      match m.pending with
      | Some (mode, e') when String.equal e' e ->
          if satisfies held mode then accept_grant t id e
      | Some _ | None ->
          if Txn_state.holds (txn_state t id) e <> None then
            () (* duplicate of an accepted grant *)
          else begin
            (* granted to a transaction that rolled back meanwhile: hand
               the lock straight back so it cannot leak *)
            History.discard t.k.hist id e;
            release_lock t id e
          end)

let release_arrive t id e =
  if t.down.(site_of t e) then ()
    (* the site died again before the release landed; rebuild reconciles *)
  else
    match Lock_table.holds t.k.locks id e with
    | None -> () (* duplicate delivery, or the row was purged *)
    | Some _ -> do_release t id e

let release_retry t id e attempt =
  match t.faults with
  | None -> ()
  | Some f ->
      if Lock_table.holds t.k.locks id e = None then ()
      else begin
        t.retransmissions <- t.retransmissions + 1;
        transmit_release t f id e ~attempt
      end

(* --- Transaction stepping -------------------------------------------- *)

let handle_lock_request t id mode e =
  let m = meta t id in
  match t.faults with
  | Some f when site_of t e <> m.home -> send_request t f id mode e
  | _ -> (
      if site_of t e <> m.home then t.messages <- t.messages + 2;
      match Lock_table.request t.k.locks id mode e with
      | Lock_table.Granted ->
          History.note_grant t.k.hist ~tick:t.k.tick id e mode;
          refresh_waiters t e;
          notify_grant t id e
      | Lock_table.Blocked holders -> blocked t id e holders)

let handle_unlock t id =
  async_release t id (Kernel.unlock t.k id);
  schedule t id

let handle_commit t id =
  let held = Kernel.commit t.k id in
  let home = (meta t id).home in
  (match t.faults with
  | None ->
      let grants = Lock_table.release_all t.k.locks id in
      List.iter
        (fun (e, _) -> if site_of t e <> home then t.messages <- t.messages + 1)
        held;
      List.iter (fun (w, mode, e) -> process_grant t w mode e) grants;
      List.iter (fun (e, _) -> refresh_waiters t e) held
  | Some f ->
      (* each remaining lock is released by its own (retried) message *)
      List.iter
        (fun (e, _) ->
          if site_of t e <> home then transmit_release t f id e ~attempt:0
          else do_release t id e)
        held);
  Kernel.retire t.k id

let exec_one t id =
  let ts = txn_state t id in
  match Txn_state.phase ts with
  | Txn_state.Committed -> ()
  | Txn_state.Growing | Txn_state.Shrinking -> (
      let m = meta t id in
      if Waits_for.is_blocked t.k.wfg id then ()
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
          t.k.tick <- max t.k.tick tick;
          (match ev with
          | Exec id -> exec_one t id
          | Detector -> (
              match t.cfg.detection with
              | Local_then_global period ->
                  let delay = detector_round t ~period in
                  push t ~at:(t.k.tick + delay) Detector
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
  let k = t.k in
  let totals = Kernel.totals k in
  {
    ticks = k.tick;
    commits = k.commits;
    deadlocks = k.deadlocks;
    local_deadlocks = t.local_deadlocks;
    global_deadlocks = t.global_deadlocks;
    wounds = t.wounds;
    rollbacks = k.rollbacks;
    ops_lost = totals.Kernel.ops_lost;
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
    starvation_fallbacks = k.starvation_fallbacks;
    max_blocked_ticks = k.max_blocked_ticks;
    total_blocked_ticks = k.total_blocked_ticks;
    max_txn_rollbacks = totals.Kernel.max_txn_rollbacks;
    check_seconds = Kernel.check_seconds k;
    check_calls = k.check_calls;
    enumerate_seconds = Kernel.enumerate_seconds k;
    enumerate_calls = k.enumerate_calls;
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
