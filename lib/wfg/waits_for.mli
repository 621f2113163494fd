(** The labelled concurrency graph G(T) of Section 3.

    The paper draws an arc [<T_j, T_i>] labelled [A] when [T_i] waits to
    lock entity [A] held by [T_j]. We store the transposed, conventional
    waits-for orientation — an edge [waiter -> holder] — which has the same
    cycles; Theorem 1's "forest" shape appears here as: every vertex has
    out-degree at most one (a transaction waits for at most one exclusive
    holder) and no cycle exists.

    Invariant maintained by the scheduler: a transaction has out-edges iff
    it is blocked, and all its out-edges carry the single entity it is
    waiting for. *)

type txn = int
type entity = Prb_storage.Store.entity

type t

val create : unit -> t

val add_txn : t -> txn -> unit
(** Register a transaction vertex (idempotent). *)

val remove_txn : t -> txn -> unit
(** Drop a vertex and all incident edges (commit/total removal). *)

val set_wait : t -> waiter:txn -> holders:txn list -> entity -> unit
(** Replace the waiter's out-edges: it now waits for each holder, on the
    given entity. @raise Invalid_argument if [holders] contains the
    waiter. *)

val clear_wait : t -> txn -> unit
(** The waiter is no longer blocked (granted or rolled back). *)

val waits : t -> txn -> (txn * entity) list
(** Current out-edges of a transaction, sorted by holder id. *)

val wait_label : t -> txn -> txn -> entity option
(** Entity labelling the arc [waiter -> holder], if the edge is present.
    Allocation-free (one membership scan plus an array read). *)

val waiting_on : t -> txn -> (txn * entity) list
(** In-edges: who waits for this transaction, sorted by waiter id. *)

val is_blocked : t -> txn -> bool

val txns : t -> txn list
(** Present transactions, ascending. O(live): the vertex set is kept as
    a sorted buffer, so the cost does not grow with the ids ever seen. *)

val edges : t -> (txn * txn * entity) list
(** (waiter, holder, entity), lexicographic. *)

val would_deadlock : t -> waiter:txn -> holders:txn list -> bool
(** Would blocking [waiter] on [holders] close a cycle? True iff some
    holder already reaches the waiter — the descendant check of
    Section 3.1 (on the transposed orientation). The graph is not
    modified. One multi-source early-exit DFS over all holders (shared
    visited set), not a full reachability pass per holder. *)

val on_site_cycle : t -> site_of:(entity -> int) -> txn -> bool
(** Does some waits-for cycle through the transaction have every arc
    label on one site — the site of the transaction's own wait entity?
    Equal to [List.exists local (cycles_through ~limit:max_int t v)]
    where [local] asks that all arc labels share a site, but answered by
    one reachability pass restricted to the waiters on that site: no
    enumeration, no allocation, [site_of] called at most once per vertex
    reached. False for a transaction that is not blocked. *)

val on_cycle_from : t -> txn list -> txn list
(** Transactions lying on some waits-for cycle reachable from the seeds,
    ascending. Sound as a full cycle census whenever every cycle is known
    to pass through a seed — the scheduler seeds it with the transactions
    whose wait edges changed since the graph was last acyclic. *)

val enumerate : limit:int -> t -> txn -> Prb_graph.Round.t -> unit
(** Fill the round with the simple cycles containing the transaction, at
    most [limit] of them and within an edge budget of
    [200 * (limit + 50)] traversals — after a deadlock has materialised
    (edges installed), these are the cycles the victim choice must break.
    The members are the transaction's strongly connected component; each
    cycle enters in the resolver's order, the transaction last, each
    member's arc labelled with its predecessor's wait entity. The round is
    [complete] unless the limit or the budget cut the search short.
    Allocation-free once the round and the search buffers have grown. *)

val cycles_through : ?limit:int -> t -> txn -> txn list list
(** The list view of {!enumerate} (default [limit] [10_000]): each cycle
    as its vertices from the transaction on. *)

val is_exclusive_forest : t -> bool
(** Theorem 1 shape check for exclusive-only systems: out-degree <= 1
    everywhere and acyclic. *)

val pp : Format.formatter -> t -> unit
(** Renders edges as ["T2 -b-> T3"] lines, matching the paper's figures. *)

val to_dot : t -> string
(** Graphviz rendering, for the examples. *)
