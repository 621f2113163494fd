module Store = Prb_storage.Store
module Lock_table = Prb_lock.Lock_table
module Waits_for = Prb_wfg.Waits_for
module Strategy = Prb_rollback.Strategy
module Txn_state = Prb_rollback.Txn_state
module History = Prb_history.History
module History_stack = Prb_rollback.History_stack
module Rng = Prb_util.Rng
module Round = Prb_graph.Round

exception Stuck of string

(* Debug tracing: enable with Logs.Src.set_level (e.g. via the CLI's
   --verbose) to watch grants, blocks, deadlocks and rollbacks. *)
let src = Logs.Src.create "prb.scheduler" ~doc:"partial-rollback scheduler"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  strategy : Strategy.t;
  policy : Policy.t;
  starvation_limit : int option;
  cycle_limit : int;
  deferred : bool;
  clock : (unit -> float) option;
  store : Store.t;
  locks : Lock_table.t;
  wfg : Waits_for.t;
  hist : History.t;
  rng : Rng.t;
  pool : History_stack.Pool.t;
  mutable txns : Txn_state.t option array;
  mutable blocked_since : int array;
  mutable rollback_counts : int array;
  mutable next_id : int;
  mutable tick : int;
  mutable commits : int;
  mutable n_blocked : int;
  mutable deadlocks : int;
  mutable rollbacks : int;
  mutable requeues : int;
  mutable overshoot_ops : int;
  mutable starvation_fallbacks : int;
  mutable max_blocked_ticks : int;
  mutable total_blocked_ticks : int;
  mutable check_calls : int;
  mutable enumerate_calls : int;
  seconds : float array;
  round : Round.t;
}

let initial_txn_cap = 64

let create ~fair ~strategy ~policy ~starvation_limit ~seed ~cycle_limit
    ~deferred ~clock store =
  let locks = Lock_table.create ~fair () in
  {
    strategy;
    policy;
    starvation_limit;
    cycle_limit;
    deferred;
    clock;
    store;
    locks;
    wfg = Waits_for.create ();
    hist = History.create ~interner:(Lock_table.interner locks) ();
    rng = Rng.make seed;
    pool = History_stack.Pool.create ();
    txns = Array.make initial_txn_cap None;
    blocked_since = Array.make initial_txn_cap (-1);
    rollback_counts = Array.make initial_txn_cap 0;
    next_id = 0;
    tick = 0;
    commits = 0;
    n_blocked = 0;
    deadlocks = 0;
    rollbacks = 0;
    requeues = 0;
    overshoot_ops = 0;
    starvation_fallbacks = 0;
    max_blocked_ticks = 0;
    total_blocked_ticks = 0;
    check_calls = 0;
    enumerate_calls = 0;
    seconds = Array.make 2 0.0;
    round = Round.create ();
  }

(* --- Admission, lookup, commit ------------------------------------- *)

(* Ids are allocated densely, so every per-transaction array grows in
   lockstep the moment a new id would fall off the end. *)
let widen cap fill a =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow k fill a =
  let cap = Array.length k.txns in
  if Array.length a >= cap then a else widen cap fill a

let admit ?copy_allocation k program =
  let id = k.next_id in
  let ts =
    Txn_state.create ?copy_allocation ~pool:k.pool ~strategy:k.strategy ~id
      ~store:k.store program
  in
  k.next_id <- id + 1;
  if id >= Array.length k.txns then begin
    let cap = 2 * Array.length k.txns in
    k.txns <- widen cap None k.txns;
    k.blocked_since <- widen cap (-1) k.blocked_since;
    k.rollback_counts <- widen cap 0 k.rollback_counts
  end;
  k.txns.(id) <- Some ts;
  Waits_for.add_txn k.wfg id;
  id

let txn k id =
  if id < 0 || id >= k.next_id then raise Not_found
  else match k.txns.(id) with Some ts -> ts | None -> raise Not_found

let all_committed k = k.commits = k.next_id

let unlock k id =
  let e = Txn_state.perform_unlock (txn k id) in
  History.note_release k.hist ~tick:k.tick id e;
  e

let commit k id =
  List.iter
    (fun (e, v) -> Store.install k.store e v)
    (Txn_state.commit (txn k id));
  let held = Lock_table.held_by k.locks id in
  List.iter (fun (e, _) -> History.note_release k.hist ~tick:k.tick id e) held;
  held

let retire k id =
  Waits_for.remove_txn k.wfg id;
  History.commit_txn k.hist id;
  (* A committer was never blocked at this point, but a stale
     [blocked_since] entry may still linger — drop it without folding it
     into the duration stats (the wait it describes ended long ago). *)
  if k.blocked_since.(id) >= 0 then begin
    k.blocked_since.(id) <- -1;
    k.n_blocked <- k.n_blocked - 1
  end;
  k.commits <- k.commits + 1;
  (* The transaction is retired: its remaining history buffers go back to
     the pool for the next admission. The accounting the stats fold reads
     (ops lost/executed, peak copies, rollbacks) survives disposal. *)
  Txn_state.dispose (txn k id)

(* --- Blocked episodes and grants ----------------------------------- *)

let note_blocked k id =
  if k.blocked_since.(id) < 0 then k.n_blocked <- k.n_blocked + 1;
  k.blocked_since.(id) <- k.tick

(* A tracked wait ended (grant, rollback, restart, crash): fold its
   duration into the blocked-time statistics and drop the episode state.
   Every path that unblocks a transaction funnels through here — including
   rollback victims, which the stats fold used to lose entirely. *)
let note_unblocked k id =
  let since = k.blocked_since.(id) in
  if since >= 0 then begin
    let d = k.tick - since in
    if d > k.max_blocked_ticks then k.max_blocked_ticks <- d;
    k.total_blocked_ticks <- k.total_blocked_ticks + d;
    k.blocked_since.(id) <- -1;
    k.n_blocked <- k.n_blocked - 1
  end

let unblock k id =
  Waits_for.clear_wait k.wfg id;
  note_unblocked k id

let granted k w mode e =
  unblock k w;
  History.note_grant k.hist ~tick:k.tick w e mode

(* --- Timed detection ----------------------------------------------- *)

(* Detection accounting (DESIGN §14): the boolean questions — the
   block-time would-deadlock probe, the site-restricted local-cycle probe
   and the cycle-membership census — are checks; the cycle enumeration
   the resolver consumes is billed separately. Victim selection and
   rollback application are resolution, not detection, and stay untimed.
   The clock is read here and nowhere else; without one it reads 0, and
   the accumulators stay 0. *)
let check_slot = 0
let enumerate_slot = 1
let now k = match k.clock with None -> 0.0 | Some clk -> clk ()

let[@lint.allow
     "A1: the accumulators are a float array, so the sum is stored \
      unboxed; without a clock [now] returns the static 0."] bill k slot
    t0 =
  k.seconds.(slot) <- k.seconds.(slot) +. (now k -. t0)

let check_seconds k = k.seconds.(check_slot)
let enumerate_seconds k = k.seconds.(enumerate_slot)

let checked k f =
  k.check_calls <- k.check_calls + 1;
  let t0 = now k in
  let r = f () in
  bill k check_slot t0;
  r

(* The eager request path runs this probe on every blocked request, so
   it is spelled out rather than passed to [checked] as a closure. *)
let would_deadlock k ~waiter ~holders =
  k.check_calls <- k.check_calls + 1;
  let t0 = now k in
  let r = Waits_for.would_deadlock k.wfg ~waiter ~holders in
  bill k check_slot t0;
  r

let on_cycle_from k seeds =
  checked k (fun () -> Waits_for.on_cycle_from k.wfg seeds)

let on_site_cycle k ~site_of id =
  checked k (fun () -> Waits_for.on_site_cycle k.wfg ~site_of id)

(* A deferred round's cycle-enumeration budget. The eager path enumerates
   up to [cycle_limit] cycles through the requester because its victim
   choices are part of the replayable contract. A deferred round — sweep
   fixpoint, targeted probe, site-local or global round — re-examines the
   graph after every cut, so it can feed the Section 3.2 cut solver a
   small sample per round and let iteration make up the difference. On
   the dense graphs deferral accretes, DFS cycle enumeration is the
   dominant detection cost, and this budget is where the deferred
   policies' wall-clock win over eager detection comes from. (Sampling is
   only safe together with escalation: small cuts roll back fewer victims
   per round, and without escalation the survivors re-collide
   indefinitely.) *)
let deferred_cycle_budget = 8

(* The cycles through the requester, in the kernel's one resolution
   round (DESIGN §15): the enumerator fills it directly, and every policy
   and the cut solver read it. *)
let cycles k requester =
  let limit =
    if k.deferred then min deferred_cycle_budget k.cycle_limit
    else k.cycle_limit
  in
  k.enumerate_calls <- k.enumerate_calls + 1;
  let t0 = now k in
  Waits_for.enumerate ~limit k.wfg requester k.round;
  bill k enumerate_slot t0;
  k.round

let cut_nodes k = k.round.Round.nodes
let cut_cycles k = k.round.Round.solved

(* --- Victim choice ------------------------------------------------- *)

(* An arc into a cycle member is labelled with the entity whose
   availability the predecessor awaits. The member breaks the arc either
   by rolling back far enough to release the entity (it holds it), or —
   under fair queueing, where waits-for edges also point at conflicting
   requests queued ahead — by cancelling its own pending request for that
   entity and requeueing at the tail. *)
let split_arcs ts entities =
  List.partition (fun e -> Txn_state.holds ts e <> None) entities

(* The latest lock state the strategy can restore that releases every
   entity of [held]. *)
let release_target ts held =
  List.fold_left
    (fun acc e -> min acc (Txn_state.rollback_target ts e))
    (Txn_state.lock_index ts) held

let release_cost k v entities =
  let ts = txn k v in
  let held, queued = split_arcs ts entities in
  let rollback_part =
    match held with
    | [] -> 0
    | es -> Txn_state.cost_of_target ts (release_target ts es)
  in
  (* Requeueing loses no progress but is not free: charge one op so the
     optimiser does not see it as a universally-winning move. *)
  rollback_part + if queued = [] then 0 else 1

(* The starvation guard: a transaction rolled back at least
   [starvation_limit] times is shielded from victim selection (the
   resolver falls back to it only when a cycle offers nobody else). *)
let immune k v =
  match k.starvation_limit with
  | Some n -> k.rollback_counts.(v) >= n
  | None -> false

(* Victim policy for one resolution round. An eager round sees only
   cycles a single request just closed, where the configured policy's
   trade-offs were calibrated; a deferred round can face several cycles
   that accreted between rounds — exactly the multi-cycle regime Section
   3.2's minimum-cost vertex cut was built for — so the iterative
   single-victim policies are routed through the cut solver
   ([Ordered_min_cost], keeping Theorem 2's preemption order). Policies
   that already are cuts run unchanged. *)
let resolution_policy k (round : Round.t) =
  if
    k.deferred
    && round.ncyc >= 2
    &&
    match k.policy with
    | Policy.Min_cost | Policy.Ordered_min_cost -> false
    | Policy.Requester | Policy.Youngest | Policy.Random_victim -> true
  then Policy.Ordered_min_cost
  else k.policy

let choose k requester round =
  k.deadlocks <- k.deadlocks + 1;
  let decision =
    Resolver.decide ~immune:(immune k)
      ~policy:(resolution_policy k round)
      ~requester
      ~entry_order:(fun v -> Txn_state.entry_order (txn k v))
      ~release_cost:(release_cost k) ~rng:k.rng round
  in
  if decision.Resolver.starved_fallback then
    k.starvation_fallbacks <- k.starvation_fallbacks + 1;
  decision

(* --- Rollback ------------------------------------------------------ *)

let roll_back k v ts target =
  let released = Txn_state.rollback_to ts target in
  k.rollbacks <- k.rollbacks + 1;
  k.rollback_counts.(v) <- k.rollback_counts.(v) + 1;
  released

let release_arcs k v entities =
  let ts = txn k v in
  match fst (split_arcs ts entities) with
  | [] ->
      (* every arc is a queue arc: cancelling the pending request (the
         transaction re-issues it and lands at the queue tail) is the
         whole remedy *)
      k.requeues <- k.requeues + 1;
      []
  | held ->
      let target = release_target ts held in
      (* Overshoot: progress destroyed beyond the minimal release point —
         zero under MCS, the whole prefix under Total, the price of
         non-well-defined states under SDG. *)
      let minimal =
        List.fold_left
          (fun acc e ->
            match Txn_state.lock_state_of ts e with
            | Some q -> min acc q
            | None -> acc)
          (Txn_state.lock_index ts) held
      in
      k.overshoot_ops <-
        k.overshoot_ops
        + Txn_state.cost_of_target ts target
        - Txn_state.cost_of_target ts minimal;
      Log.info (fun m ->
          m "[%d] partial rollback of T%d to %s (releasing %s)" k.tick v
            (if target = Txn_state.restart_target then "restart"
             else Printf.sprintf "lock state %d" target)
            (String.concat "," held));
      roll_back k v ts target

(* How many rollbacks a transaction may suffer before a deferred round
   stops rolling it back partially and escalates to a delayed full
   restart. Deferred resolution restarts its victims into the same
   deterministic workload that just deadlocked them; without escalation
   the hot-set regulars re-collide forever (a limit cycle — Figure 2's
   pathology resurrected by batching, and the E10b re-victimisation loop
   of the stale-snapshot cost policies), and a partial-rollback victim
   cannot simply be parked with a long backoff because it keeps holding
   its remaining locks, turning the backoff into a convoy. The full
   restart releases everything, so the quadratic re-admission delay
   desynchronises the herd without stalling anyone behind it. *)
let deferred_escalation = 4

(* A deferred round can roll back many victims at once; restarted in
   lockstep at [t+1] they re-request the same hot entities in the same
   order and the next round faces the same cycles. Stagger the herd by
   victim position and back off early repeat victims quadratically —
   deterministic, and zero in eager rounds, whose replay output must stay
   byte-identical. (Victims past [deferred_escalation] never get here;
   they escalate to a delayed full restart, so this backoff stays too
   short to convoy waiters behind a still-held lock.) *)
let backoff k ~stagger v =
  if k.deferred then
    let n = k.rollback_counts.(v) in
    stagger + (n * n)
  else 0

module type ENGINE = sig
  type engine

  val kernel : engine -> t
  val abandon_wait : engine -> int -> unit
  val release : engine -> int -> restart:bool -> Store.entity list -> unit
  val resume : engine -> int -> at:int -> unit
end

module Rollback (E : ENGINE) = struct
  let restart e v ~at =
    let k = E.kernel e in
    E.abandon_wait e v;
    E.release e v ~restart:true
      (roll_back k v (txn k v) Txn_state.restart_target);
    E.resume e v ~at

  let apply_rollback ?(stagger = 0) e v entities =
    let k = E.kernel e in
    let prior = k.rollback_counts.(v) in
    if k.deferred && prior >= deferred_escalation then
      let delay = stagger + min 4096 (prior * prior) in
      restart e v ~at:(k.tick + 1 + delay)
    else begin
      E.abandon_wait e v;
      E.release e v ~restart:false (release_arcs k v entities);
      E.resume e v ~at:(k.tick + 1 + backoff k ~stagger v)
    end

  let apply_victims e (decision : Resolver.decision) =
    List.iteri
      (fun i (v, entities) -> apply_rollback ~stagger:i e v entities)
      decision.Resolver.victims
end

(* --- Statistics ---------------------------------------------------- *)

type totals = {
  ops_lost : int;
  ops_executed : int;
  peak_copies : int;
  max_txn_rollbacks : int;
}

(* One ascending pass accumulating every per-transaction aggregate. *)
let totals k =
  let ops_lost = ref 0 and ops_executed = ref 0 and peak_copies = ref 0 in
  let max_txn_rollbacks = ref 0 in
  for id = 0 to k.next_id - 1 do
    (match k.txns.(id) with
    | Some ts ->
        ops_lost := !ops_lost + Txn_state.ops_lost ts;
        ops_executed := !ops_executed + Txn_state.total_executed ts;
        peak_copies := max !peak_copies (Txn_state.peak_copies ts)
    | None -> ());
    max_txn_rollbacks := max !max_txn_rollbacks k.rollback_counts.(id)
  done;
  {
    ops_lost = !ops_lost;
    ops_executed = !ops_executed;
    peak_copies = !peak_copies;
    max_txn_rollbacks = !max_txn_rollbacks;
  }
