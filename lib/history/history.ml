module Digraph = Prb_graph.Digraph
module Lock_mode = Prb_txn.Lock_mode
module Dense = Prb_util.Dense
module Interner = Prb_util.Dense.Interner

type txn = int
type entity = Prb_storage.Store.entity
type mode = Lock_mode.t

type interval = {
  txn : txn;
  entity : entity;
  mode : mode;
  granted_at : int;
  released_at : int;
}

(* Dense layout (DESIGN.md §16). Intervals live in a struct-of-arrays
   arena indexed by interval number; a free slot is chained through
   [iv_next]. Each interval sits on two chains: its transaction's (open
   intervals, then closed ones in release order, through [iv_next]) and,
   once committed, its entity's retained chain (newest first, doubly
   linked through [iv_eprev]/[iv_enext] from [ent_head]). Entities are
   the interner's ids — the lock table's own when the engine shares it —
   so no name is hashed twice.

   A transaction is a recycled [txn_rec] from its first grant until it is
   dropped: discarded, committed with nothing, or folded. While live it is
   listed in [live] (the watermark's domain) and found through
   [slot_of_id]; once committed with intervals it is retained, listed in
   [ret_ids]/[ret_slots] in ascending id order, and carries its
   precedence out-edges as successor slots plus an in-degree counter. *)
type txn_rec = {
  mutable id : int;
  mutable open_ivs : int;  (* open intervals, chained through iv_next *)
  mutable first : int;  (* closed intervals in release order ... *)
  mutable last : int;  (* ... appended here *)
  mutable n_closed : int;
  mutable first_granted : int;
      (* The earliest grant tick the transaction ever produced: its
         contribution to the truncation watermark. Discards may remove the
         interval that set it; keeping the stale, lower value is
         conservative — it only delays folding, never unsoundly permits
         it. *)
  mutable max_released : int;
  mutable indeg : int;  (* retained predecessors *)
  mutable succ : int array;  (* retained successors' slots; kept on reuse *)
  mutable n_succ : int;
  mutable live_at : int;  (* index in [live]; -1 once committed *)
}

type t = {
  ids : Interner.t;
  mutable iv_owner : int array;  (* slot of the owning transaction *)
  mutable iv_eid : int array;
  mutable iv_mode : int array;  (* 1 = exclusive *)
  mutable iv_granted : int array;
  mutable iv_released : int array;
  mutable iv_next : int array;
  mutable iv_eprev : int array;
  mutable iv_enext : int array;
  mutable iv_free : int;
  mutable iv_used : int;  (* arena slots ever handed out *)
  mutable ent_head : int array;  (* entity id -> newest retained interval *)
  mutable recs : txn_rec array;
  mutable n_recs : int;
  mutable free_recs : int array;
  mutable n_free_recs : int;
  mutable slot_of_id : int array;  (* live transaction id -> slot, or -1 *)
  mutable live : int array;  (* slots of live transactions, unordered *)
  mutable n_live : int;
  mutable ret_ids : int array;  (* retained committed ids, ascending *)
  mutable ret_slots : int array;
  mutable n_ret : int;
  mutable folded : int array;  (* the serial-order prefix, in fold order *)
  mutable n_folded : int;
  mutable viol : int array;
      (* overlapping conflicts, [viol_width] ints each: both intervals'
         fields, smaller transaction id first *)
  mutable n_viol : int;
  mutable now : int;  (* highest tick observed *)
  mutable n_retained : int;  (* retained committed intervals *)
}

let create ?interner () =
  {
    ids =
      (match interner with
      | Some ids -> ids
      | None -> Interner.create ~size_hint:64 ());
    iv_owner = [||];
    iv_eid = [||];
    iv_mode = [||];
    iv_granted = [||];
    iv_released = [||];
    iv_next = [||];
    iv_eprev = [||];
    iv_enext = [||];
    iv_free = -1;
    iv_used = 0;
    ent_head = [||];
    recs = [||];
    n_recs = 0;
    free_recs = [||];
    n_free_recs = 0;
    slot_of_id = [||];
    live = [||];
    n_live = 0;
    ret_ids = [||];
    ret_slots = [||];
    n_ret = 0;
    folded = [||];
    n_folded = 0;
    viol = [||];
    n_viol = 0;
    now = 0;
    n_retained = 0;
  }

let bit_of_mode = function Lock_mode.Shared -> 0 | Lock_mode.Exclusive -> 1
let mode_of_bit b = if b = 1 then Lock_mode.Exclusive else Lock_mode.Shared

(* Room for index [i] in an int buffer, by geometric growth. *)
let room a i fill =
  if i < Array.length a then a else Dense.grow (max 16 (2 * i)) fill a

(* --- Interval arena ---------------------------------------------------- *)

let alloc_iv t =
  if t.iv_free >= 0 then begin
    let iv = t.iv_free in
    t.iv_free <- t.iv_next.(iv);
    iv
  end
  else begin
    let iv = t.iv_used in
    if iv >= Array.length t.iv_owner then begin
      t.iv_owner <- room t.iv_owner iv 0;
      t.iv_eid <- room t.iv_eid iv 0;
      t.iv_mode <- room t.iv_mode iv 0;
      t.iv_granted <- room t.iv_granted iv 0;
      t.iv_released <- room t.iv_released iv 0;
      t.iv_next <- room t.iv_next iv (-1);
      t.iv_eprev <- room t.iv_eprev iv (-1);
      t.iv_enext <- room t.iv_enext iv (-1)
    end;
    t.iv_used <- iv + 1;
    iv
  end

let free_iv t iv =
  t.iv_next.(iv) <- t.iv_free;
  t.iv_free <- iv

let rec free_chain t iv =
  if iv >= 0 then begin
    let next = t.iv_next.(iv) in
    free_iv t iv;
    free_chain t next
  end

(* The open interval on entity [eid] in the chain from [iv], or -1. *)
let rec find_open t eid iv =
  if iv < 0 || t.iv_eid.(iv) = eid then iv else find_open t eid t.iv_next.(iv)

(* Unlink and return the open interval on [eid] after [prev], or -1. *)
let rec take_open_after t eid prev =
  let iv = t.iv_next.(prev) in
  if iv < 0 then -1
  else if t.iv_eid.(iv) = eid then begin
    t.iv_next.(prev) <- t.iv_next.(iv);
    iv
  end
  else take_open_after t eid iv

(* Unlink and return [r]'s open interval on [entity], or -1. A name never
   interned has none. *)
let take_open t r entity =
  let eid = Interner.find t.ids entity in
  let iv = r.open_ivs in
  if eid < 0 || iv < 0 then -1
  else if t.iv_eid.(iv) = eid then begin
    r.open_ivs <- t.iv_next.(iv);
    iv
  end
  else take_open_after t eid iv

(* --- Transaction records ---------------------------------------------- *)

let[@lint.allow
     "A1: the record pool grows to the high-water mark of live plus \
      retained transactions; past it every record is recycled"] fresh_rec
    t =
  let s = t.n_recs in
  let r =
    {
      id = 0;
      open_ivs = -1;
      first = -1;
      last = -1;
      n_closed = 0;
      first_granted = 0;
      max_released = min_int;
      indeg = 0;
      succ = [||];
      n_succ = 0;
      live_at = -1;
    }
  in
  if s >= Array.length t.recs then
    t.recs <- Dense.grow (max 16 (2 * s)) r t.recs;
  t.recs.(s) <- r;
  t.n_recs <- s + 1;
  s

let live_slot t txn =
  if txn >= 0 && txn < Array.length t.slot_of_id then t.slot_of_id.(txn)
  else -1

(* The live record of [txn], created at its first grant. *)
let live_rec t txn ~tick =
  let s = live_slot t txn in
  if s >= 0 then s
  else begin
    if txn < 0 then invalid_arg "History.note_grant: negative transaction id";
    let s =
      if t.n_free_recs > 0 then begin
        t.n_free_recs <- t.n_free_recs - 1;
        t.free_recs.(t.n_free_recs)
      end
      else fresh_rec t
    in
    let r = t.recs.(s) in
    r.id <- txn;
    r.open_ivs <- -1;
    r.first <- -1;
    r.last <- -1;
    r.n_closed <- 0;
    r.first_granted <- tick;
    r.max_released <- min_int;
    r.indeg <- 0;
    r.n_succ <- 0;
    t.live <- room t.live t.n_live 0;
    t.live.(t.n_live) <- s;
    r.live_at <- t.n_live;
    t.n_live <- t.n_live + 1;
    if txn >= Array.length t.slot_of_id then
      t.slot_of_id <-
        Dense.grow
          (max 64 (max (txn + 1) (2 * Array.length t.slot_of_id)))
          (-1) t.slot_of_id;
    t.slot_of_id.(txn) <- s;
    s
  end

let free_rec t s =
  t.free_recs <- room t.free_recs t.n_free_recs 0;
  t.free_recs.(t.n_free_recs) <- s;
  t.n_free_recs <- t.n_free_recs + 1

let unlink_live t s =
  let r = t.recs.(s) in
  let i = r.live_at in
  let last = t.live.(t.n_live - 1) in
  t.live.(i) <- last;
  t.recs.(last).live_at <- i;
  t.n_live <- t.n_live - 1;
  r.live_at <- -1;
  t.slot_of_id.(r.id) <- -1

(* Dropping a live record lets the watermark advance past its stale
   [first_granted]; any later re-grant starts a fresh record at the
   (necessarily later) new tick. *)
let drop_live t s =
  let r = t.recs.(s) in
  unlink_live t s;
  free_chain t r.open_ivs;
  free_chain t r.first;
  free_rec t s

(* --- Recording --------------------------------------------------------- *)

let[@hot] note_grant t ~tick txn entity mode =
  if tick > t.now then t.now <- tick;
  let s = live_rec t txn ~tick in
  let r = t.recs.(s) in
  if tick < r.first_granted then r.first_granted <- tick;
  let eid = Interner.intern t.ids entity in
  (* an upgrade re-grant replaces the open interval *)
  let iv = find_open t eid r.open_ivs in
  let iv =
    if iv >= 0 then iv
    else begin
      let iv = alloc_iv t in
      t.ent_head <- room t.ent_head eid (-1);
      t.iv_owner.(iv) <- s;
      t.iv_eid.(iv) <- eid;
      t.iv_next.(iv) <- r.open_ivs;
      r.open_ivs <- iv;
      iv
    end
  in
  t.iv_mode.(iv) <- bit_of_mode mode;
  t.iv_granted.(iv) <- tick

let[@hot] note_release t ~tick txn entity =
  if tick > t.now then t.now <- tick;
  let s = live_slot t txn in
  if s >= 0 then begin
    let r = t.recs.(s) in
    let iv = take_open t r entity in
    if iv >= 0 then begin
      t.iv_released.(iv) <- tick;
      t.iv_next.(iv) <- -1;
      if r.last < 0 then r.first <- iv else t.iv_next.(r.last) <- iv;
      r.last <- iv;
      r.n_closed <- r.n_closed + 1
    end
  end

let discard t txn entity =
  let s = live_slot t txn in
  if s >= 0 then begin
    let r = t.recs.(s) in
    let iv = take_open t r entity in
    if iv >= 0 then free_iv t iv;
    if r.open_ivs < 0 && r.first < 0 then drop_live t s
  end

let discard_txn t txn =
  let s = live_slot t txn in
  if s >= 0 then drop_live t s

(* --- Streaming conflict-graph maintenance ---------------------------- *)

let viol_width = 10

let store_iv t base iv =
  t.viol.(base) <- t.recs.(t.iv_owner.(iv)).id;
  t.viol.(base + 1) <- t.iv_eid.(iv);
  t.viol.(base + 2) <- t.iv_mode.(iv);
  t.viol.(base + 3) <- t.iv_granted.(iv);
  t.viol.(base + 4) <- t.iv_released.(iv)

(* Recorded as plain fields: the intervals themselves may fold away. *)
let note_violation t a b =
  let base = t.n_viol * viol_width in
  t.viol <- room t.viol (base + viol_width - 1) 0;
  store_iv t base a;
  store_iv t (base + 5) b;
  t.n_viol <- t.n_viol + 1

let rec mem_succ (succ : int array) n (v : int) i =
  i < n && (succ.(i) = v || mem_succ succ n v (i + 1))

(* Edge [u -> v] between record slots, idempotent. *)
let add_edge t u v =
  let ru = t.recs.(u) in
  if not (mem_succ ru.succ ru.n_succ v 0) then begin
    ru.succ <- room ru.succ ru.n_succ 0;
    ru.succ.(ru.n_succ) <- v;
    ru.n_succ <- ru.n_succ + 1;
    let rv = t.recs.(v) in
    rv.indeg <- rv.indeg + 1
  end

(* Check interval [a] of a committing transaction against the retained
   intervals on its entity, from [b] on: conflicting modes from distinct
   transactions either overlap (a lock-manager violation) or order the
   two transactions. *)
let rec check_peers t a b =
  if b >= 0 then begin
    let sa = t.iv_owner.(a) and sb = t.iv_owner.(b) in
    if
      t.recs.(sa).id <> t.recs.(sb).id
      && t.iv_mode.(a) lor t.iv_mode.(b) = 1
    then begin
      let ga = t.iv_granted.(a) and ra = t.iv_released.(a) in
      let gb = t.iv_granted.(b) and rb = t.iv_released.(b) in
      if ga < rb && gb < ra then
        if t.recs.(sa).id < t.recs.(sb).id then note_violation t a b
        else note_violation t b a;
      if ra <= gb then add_edge t sa sb;
      if rb <= ga then add_edge t sb sa
    end;
    check_peers t a t.iv_enext.(b)
  end

(* Certify the committing transaction's closed intervals from [iv] on, in
   release order, and index each on its entity's retained chain. *)
let rec certify t r iv =
  if iv >= 0 then begin
    if t.iv_released.(iv) > r.max_released then
      r.max_released <- t.iv_released.(iv);
    let eid = t.iv_eid.(iv) in
    let head = t.ent_head.(eid) in
    check_peers t iv head;
    t.iv_eprev.(iv) <- -1;
    t.iv_enext.(iv) <- head;
    if head >= 0 then t.iv_eprev.(head) <- iv;
    t.ent_head.(eid) <- iv;
    certify t r t.iv_next.(iv)
  end

let rec place_retained t id s i =
  if i > 0 && t.ret_ids.(i - 1) > id then begin
    t.ret_ids.(i) <- t.ret_ids.(i - 1);
    t.ret_slots.(i) <- t.ret_slots.(i - 1);
    place_retained t id s (i - 1)
  end
  else begin
    t.ret_ids.(i) <- id;
    t.ret_slots.(i) <- s
  end

let insert_retained t id s =
  t.ret_ids <- room t.ret_ids t.n_ret 0;
  t.ret_slots <- room t.ret_slots t.n_ret 0;
  place_retained t id s t.n_ret;
  t.n_ret <- t.n_ret + 1

(* The truncation watermark W: every interval committed from this point
   on is granted at tick >= W. Minimum over [now] (future grants happen
   at or after the present) and every live transaction's earliest grant
   (its pending intervals are already bounded by it). *)
let rec min_first_granted t i acc =
  if i >= t.n_live then acc
  else
    let f = t.recs.(t.live.(i)).first_granted in
    min_first_granted t (i + 1) (if f < acc then f else acc)

let watermark t = min_first_granted t 0 t.now

let rec unindex_chain t iv =
  if iv >= 0 then begin
    let next = t.iv_next.(iv) in
    let prev = t.iv_eprev.(iv) and enext = t.iv_enext.(iv) in
    if prev >= 0 then t.iv_enext.(prev) <- enext
    else t.ent_head.(t.iv_eid.(iv)) <- enext;
    if enext >= 0 then t.iv_eprev.(enext) <- prev;
    free_iv t iv;
    unindex_chain t next
  end

(* Fold the retained transaction at index [i] into the serial-order
   prefix: its intervals leave the entity chains and the arena, and its
   out-edges leave its successors' in-degrees. The edges it would have
   contributed to future commits all point prefix -> future, which the
   prefix order already witnesses. *)
let fold_at t i =
  let s = t.ret_slots.(i) in
  let r = t.recs.(s) in
  unindex_chain t r.first;
  for j = 0 to r.n_succ - 1 do
    let v = t.recs.(r.succ.(j)) in
    v.indeg <- v.indeg - 1
  done;
  Array.blit t.ret_ids (i + 1) t.ret_ids i (t.n_ret - i - 1);
  Array.blit t.ret_slots (i + 1) t.ret_slots i (t.n_ret - i - 1);
  t.n_ret <- t.n_ret - 1;
  t.n_retained <- t.n_retained - r.n_closed;
  t.folded <- room t.folded t.n_folded 0;
  t.folded.(t.n_folded) <- r.id;
  t.n_folded <- t.n_folded + 1;
  free_rec t s

(* Fold every retained committed transaction that can no longer interact
   with the future: no retained predecessors (so its prefix position is
   final) and strictly quiescent (all intervals released before the
   watermark, so no future interval can overlap it or precede it). The
   scan runs over the ascending id buffer and restarts from the front
   after each fold, because a fold can zero the in-degree of a smaller
   id: the fold sequence is always the smallest foldable id. *)
let rec fold_scan t w i =
  if i < t.n_ret then begin
    let r = t.recs.(t.ret_slots.(i)) in
    if r.max_released < w && r.indeg = 0 then begin
      fold_at t i;
      fold_scan t w 0
    end
    else fold_scan t w (i + 1)
  end

let[@hot] commit_txn t txn =
  let s = live_slot t txn in
  if s >= 0 then begin
    let r = t.recs.(s) in
    if r.open_ivs >= 0 then
      invalid_arg "History.commit_txn: transaction still holds a lock";
    unlink_live t s;
    if r.first < 0 then
      (* no committed interval: no vertex, like the naive graph *)
      free_rec t s
    else begin
      certify t r r.first;
      insert_retained t r.id s;
      t.n_retained <- t.n_retained + r.n_closed;
      fold_scan t (watermark t) 0
    end
  end

(* --- Queries ---------------------------------------------------------- *)

let interval_of t iv =
  {
    txn = t.recs.(t.iv_owner.(iv)).id;
    entity = Interner.name t.ids t.iv_eid.(iv);
    mode = mode_of_bit t.iv_mode.(iv);
    granted_at = t.iv_granted.(iv);
    released_at = t.iv_released.(iv);
  }

let rec chain_rev t iv acc =
  if iv < 0 then acc else chain_rev t t.iv_next.(iv) (interval_of t iv :: acc)

let compare_key a b =
  match Int.compare a.granted_at b.granted_at with
  | 0 -> (
      match Int.compare a.txn b.txn with
      | 0 -> String.compare a.entity b.entity
      | c -> c)
  | c -> c

(* Each transaction's intervals stay in release order among equal keys:
   the sort is stable. *)
let committed t =
  let all = ref [] in
  for i = 0 to t.n_ret - 1 do
    let r = t.recs.(t.ret_slots.(i)) in
    all := List.rev_append (chain_rev t r.first []) !all
  done;
  List.sort compare_key !all

let violation_at t k =
  let field base =
    {
      txn = t.viol.(base);
      entity = Interner.name t.ids t.viol.(base + 1);
      mode = mode_of_bit t.viol.(base + 2);
      granted_at = t.viol.(base + 3);
      released_at = t.viol.(base + 4);
    }
  in
  let base = k * viol_width in
  (field base, field (base + 5))

let overlapping_conflicts t =
  (* newest first before the stable sort, as recorded *)
  let pairs = List.init t.n_viol (fun k -> violation_at t (t.n_viol - 1 - k)) in
  List.sort
    (fun (a1, b1) (a2, b2) ->
      match compare_key a1 a2 with
      | 0 -> (
          match Int.compare b1.txn b2.txn with
          | 0 -> String.compare b1.entity b2.entity
          | c -> c)
      | c -> c)
    pairs

(* The retained precedence graph, built on demand. *)
let precedence_graph t =
  let g = Digraph.create () in
  for i = 0 to t.n_ret - 1 do
    Digraph.add_vertex g t.ret_ids.(i)
  done;
  for i = 0 to t.n_ret - 1 do
    let r = t.recs.(t.ret_slots.(i)) in
    for j = 0 to r.n_succ - 1 do
      Digraph.add_edge g r.id t.recs.(r.succ.(j)).id
    done
  done;
  g

let serializable t =
  t.n_viol = 0 && not (Digraph.has_cycle (precedence_graph t))

let equivalent_serial_order t =
  if t.n_viol > 0 then None
  else
    match Digraph.topological_sort (precedence_graph t) with
    | None -> None
    | Some order ->
        let witness = ref order in
        for i = t.n_folded - 1 downto 0 do
          witness := t.folded.(i) :: !witness
        done;
        Some !witness

let n_retained_intervals t = t.n_retained
let n_retained_txns t = t.n_ret
let n_folded t = t.n_folded
