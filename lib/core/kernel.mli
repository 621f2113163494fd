(** The engine kernel: the state and operations the central {!Scheduler}
    and the multi-site [Dist_scheduler] share, so the paper's partial
    rollback (Sections 3.1–3.3) is implemented once. An engine adds its
    event queue and its detection schedule, and supplies through {!ENGINE}
    what differs in applying a rollback (DESIGN.md Section 15). *)

exception Stuck of string
(** A bug guard: resolution made no progress. Both engines re-export it
    as their [Stuck]. *)

module Log : Logs.LOG
(** The engines' debug-trace source, ["prb.scheduler"]. *)

type t = {
  strategy : Prb_rollback.Strategy.t;
  policy : Policy.t;
  starvation_limit : int option;
  cycle_limit : int;
  deferred : bool;
      (** every resolution round is deferred; read by the kernel only *)
  clock : (unit -> float) option;
  store : Prb_storage.Store.t;
  locks : Prb_lock.Lock_table.t;
  wfg : Prb_wfg.Waits_for.t;
  hist : Prb_history.History.t;
  rng : Prb_util.Rng.t;
  pool : Prb_rollback.History_stack.Pool.t;
  mutable txns : Prb_rollback.Txn_state.t option array;
      (** by id; ids are dense, and committed transactions keep their slot *)
  mutable blocked_since : int array;  (** [-1] when not blocked *)
  mutable rollback_counts : int array;
  mutable next_id : int;
  mutable tick : int;
  mutable commits : int;
  mutable n_blocked : int;  (** entries of [blocked_since] that are set *)
  mutable deadlocks : int;  (** resolution rounds *)
  mutable rollbacks : int;
  mutable requeues : int;  (** victims with only queue arcs *)
  mutable overshoot_ops : int;
  mutable starvation_fallbacks : int;
  mutable max_blocked_ticks : int;
  mutable total_blocked_ticks : int;
  mutable check_calls : int;
  mutable enumerate_calls : int;
  seconds : float array;
  round : Prb_graph.Round.t;
      (** the one resolution round, refilled by {!cycles} *)
}
(** Engines read the fields directly on their per-step paths (a
    cross-module accessor would not be inlined). They write only [tick]. *)

val create :
  fair:bool ->
  strategy:Prb_rollback.Strategy.t ->
  policy:Policy.t ->
  starvation_limit:int option ->
  seed:int ->
  cycle_limit:int ->
  deferred:bool ->
  clock:(unit -> float) option ->
  Prb_storage.Store.t ->
  t
(** [deferred]: the engine's detection policy runs resolution rounds off
    the request path (see {!Detection_policy}), so cycles accrete between
    rounds. The engine decides this once from its configuration; the
    kernel alone reads it, in {!cycles}, {!choose} and {!Rollback}. *)

(** {2 Admission, lookup, commit} *)

val admit :
  ?copy_allocation:(string -> int) -> t -> Prb_txn.Program.t -> int
(** Create the transaction's state and give it the next id.
    @raise Invalid_argument on an invalid program, consuming no id. *)

val grow : t -> 'a -> 'a array -> 'a array
(** [grow k fill a] pads an engine's per-transaction array with [fill] to
    the kernel's capacity, after {!admit}. *)

val txn : t -> int -> Prb_rollback.Txn_state.t
(** @raise Not_found for unknown ids. *)

val all_committed : t -> bool

val unlock : t -> int -> Prb_storage.Store.entity
(** Execute the pending [Unlock]; returns the entity whose lock the engine
    releases. *)

val commit :
  t -> int -> (Prb_storage.Store.entity * Prb_txn.Lock_mode.t) list
(** Install the final values; returns the locks still held, which the
    engine releases before it calls {!retire}. *)

val retire : t -> int -> unit
(** Count the commit and return the transaction's histories to the pool;
    its accounting stays readable. *)

(** {2 Blocked episodes and grants} *)

val note_blocked : t -> int -> unit
(** The transaction blocked at the current tick. *)

val unblock : t -> int -> unit
(** Clear the waits-for edges and end the blocked episode. *)

val granted :
  t -> int -> Prb_txn.Lock_mode.t -> Prb_storage.Store.entity -> unit
(** The lock table granted a queued request: {!unblock} the waiter and
    open its history interval. *)

(** {2 Timed detection}

    Counted, and timed when the kernel has a clock. *)

val would_deadlock : t -> waiter:int -> holders:int list -> bool
val on_cycle_from : t -> int list -> int list

val on_site_cycle :
  t -> site_of:(Prb_storage.Store.entity -> int) -> int -> bool

val deferred_cycle_budget : int
(** Cycles a deferred round enumerates at most (8). *)

val cycles : t -> int -> Prb_graph.Round.t
(** Refill the kernel's resolution round with at most [cycle_limit]
    cycles through the requester; at most {!deferred_cycle_budget} when
    [deferred]. Returns the round, which stays valid until the next
    call. *)

val cut_nodes : t -> int
(** Branch-and-bound nodes the cut solver expanded, over the run. *)

val cut_cycles : t -> int
(** Cycles handed to the cut solver, over the run. *)

val check_seconds : t -> float
val enumerate_seconds : t -> float

(** {2 Victim choice} *)

val choose : t -> int -> Prb_graph.Round.t -> Resolver.decision
(** One round's victims, from the round {!cycles} filled (possibly
    filtered since). The starvation guard shields transactions rolled
    back [starvation_limit] times; a [deferred] round facing several
    cycles routes the single-victim policies through the vertex cut
    ([Ordered_min_cost]). *)

(** {2 Rollback} *)

val release_arcs :
  t -> int -> Prb_storage.Store.entity list -> Prb_storage.Store.entity list
(** Roll the victim back far enough to release the entities it holds,
    returning those it gave up ([[]]: a requeue, it holds none). *)

val deferred_escalation : int
(** Rollbacks after which a deferred round restarts its victim (4). *)

(** What an engine supplies to apply rollbacks. *)
module type ENGINE = sig
  type engine

  val kernel : engine -> t

  val abandon_wait : engine -> int -> unit
  (** Cancel the pending request, if any, and {!unblock}. *)

  val release :
    engine -> int -> restart:bool -> Prb_storage.Store.entity list -> unit
  (** Discard and release the locks a rollback (or [restart]) gave up. *)

  val resume : engine -> int -> at:int -> unit
end

module Rollback (E : ENGINE) : sig
  val restart : E.engine -> int -> at:int -> unit
  (** Roll back to the restart target and resume at [at]. *)

  val apply_rollback :
    ?stagger:int ->
    E.engine ->
    int ->
    Prb_storage.Store.entity list ->
    unit
  (** {!release_arcs} and resume. In a [deferred] round the victim at
      position [stagger] backs off [stagger + n²] after its [n]th
      rollback; after {!deferred_escalation} it restarts instead, delayed
      [stagger + min 4096 n²]. *)

  val apply_victims : E.engine -> Resolver.decision -> unit
  (** {!apply_rollback} to every victim of a decision, in order. *)
end

(** {2 Statistics} *)

type totals = {
  ops_lost : int;
  ops_executed : int;
  peak_copies : int;
  max_txn_rollbacks : int;
}

val totals : t -> totals
(** The per-transaction aggregates. *)
