(** Minimum-cost vertex cut sets for deadlock removal (paper Section 3.2).

    With shared and exclusive locks one wait response may close many cycles
    at once — all passing through the requesting transaction — and optimal
    deadlock removal asks for a set of transactions of minimum total
    rollback cost whose removal breaks every cycle. The paper notes this is
    (believed) NP-complete, kin to feedback vertex set; accordingly we
    provide an exact exponential solver for the small instances real
    deadlocks produce, and a greedy heuristic for scale, and benchmark one
    against the other (experiment E8/fig3).

    The solver runs on a {!Round}; the list instances below are built
    into one. *)

val solve : ?node_budget:int -> Round.t -> cost:(int -> float) -> bool
(** Minimum-cost hitting set of the round's [hit] sets (see
    {!Round.restrict}), written to its [cut] as a member bitset. [cost i]
    is member [i]'s cost, called once per candidate. Branch and bound,
    seeded with the greedy solution; ties broken by member index, i.e. by
    vertex id. Returns [true] with an optimum, or [false] with the greedy
    cut when the search exceeds [node_budget] expansions (default
    [1_000_000]) without proving one. Adds the nodes expanded and the
    cycles solved to the round's counters. *)

type instance = {
  cycles : int list list;  (** each cycle as a list of vertex ids *)
  cost : int -> float;  (** rollback cost of removing a vertex *)
}

val exact : ?node_budget:int -> instance -> int list option
(** {!solve} on the instance: the chosen vertices sorted ascending, or
    [None] when the budget ran out — callers then fall back to {!greedy}.
    An instance with no cycles yields [Some []]. *)

val greedy : instance -> int list
(** Classic set-cover heuristic: repeatedly remove the vertex with the best
    (cycles hit / cost) ratio until no cycle survives. ln(n)-approximate
    for hitting set; linear-ish in practice. *)

val total_cost : instance -> int list -> float
(** Sum of costs of a vertex set. *)

val is_cut : instance -> int list -> bool
(** Does the set intersect every cycle? *)
