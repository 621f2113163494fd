module Iset = Set.Make (Int)

type instance = { cycles : int list list; cost : int -> float }

let total_cost t set = List.fold_left (fun acc v -> acc +. t.cost v) 0.0 set

let is_cut t set =
  let s = Iset.of_list set in
  List.for_all (fun cycle -> List.exists (fun v -> Iset.mem v s) cycle) t.cycles

(* Both solvers run on a round (DESIGN §15): cycle [c] offers the members
   of its [hit] bitset, and the candidates are the members of any of
   them. Members are ranked by vertex id, so ascending member order is
   the original solver's tie-break order. Preparation evaluates the cost
   once per candidate, in ascending order, and transposes the [hit] sets
   into one bitmask of cycles per member, so "which cycles does this set
   hit" is word-parallel. Search order, tie breaks and the float pruning
   epsilons are exactly the original list solver's, so every decision —
   including which of several optima is found first, and the node at
   which the budget trips — is unchanged. *)

let rec popcount_ x acc =
  if x = 0 then acc else popcount_ (x land (x - 1)) (acc + 1)

let popcount x = popcount_ x 0

(* Index of the lowest set bit of a non-zero word. *)
let rec lowest_bit_ x b =
  if x land 1 <> 0 then b else lowest_bit_ (x lsr 1) (b + 1)

let lowest_bit x = lowest_bit_ x 0

let prepare (r : Round.t) ~cwords cost =
  let w = r.words in
  Round.size_solver r ~cwords;
  Array.fill r.cand 0 w 0;
  Array.fill r.vmask 0 (r.n * cwords) 0;
  Array.fill r.full 0 cwords 0;
  for c = 0 to r.ncyc - 1 do
    let cw = c / 63 and cb = 1 lsl (c mod 63) in
    r.full.(cw) <- r.full.(cw) lor cb;
    for k = 0 to w - 1 do
      let m = r.hit.((c * w) + k) in
      r.cand.(k) <- r.cand.(k) lor m;
      let m = ref m in
      while !m <> 0 do
        let i = (k * 63) + lowest_bit !m in
        m := !m land (!m - 1);
        let v = (i * cwords) + cw in
        r.vmask.(v) <- r.vmask.(v) lor cb
      done
    done
  done;
  for i = 0 to r.n - 1 do
    if Round.mem r.cand 0 i then r.costs.(i) <- cost i
  done

(* Cycles hit by candidate [i] among the still-alive cycles. *)
let hits_alive (r : Round.t) cwords i =
  let n = ref 0 in
  for w = 0 to cwords - 1 do
    n := !n + popcount (r.vmask.((i * cwords) + w) land lnot r.covered.(w))
  done;
  !n

let all_covered (r : Round.t) cwords =
  let ok = ref true in
  for w = 0 to cwords - 1 do
    if r.covered.(w) land r.full.(w) <> r.full.(w) then ok := false
  done;
  !ok

(* Index of the first cycle not hit by the chosen set, or [-1]. The cycle
   order is the branching order of the original solver, so it must be
   the lowest cycle index, not just any uncovered one. *)
let first_surviving (r : Round.t) cwords =
  let rec go w =
    if w >= cwords then -1
    else
      let miss = r.full.(w) land lnot r.covered.(w) in
      if miss <> 0 then (w * 63) + lowest_bit miss else go (w + 1)
  in
  go 0

(* Greedy hitting set into [r.cut]; identical pick sequence to the
   classic fold: candidates of the alive cycles ascending, a
   strictly-better-by-1e-12 score replaces, so the lowest vertex wins
   ties. *)
let greedy_prepared (r : Round.t) cwords =
  Array.fill r.cut 0 r.words 0;
  Array.fill r.covered 0 cwords 0;
  let rec loop () =
    if not (all_covered r cwords) then begin
      let best = ref (-1) in
      let best_score = ref 0.0 in
      for i = 0 to r.n - 1 do
        if Round.mem r.cand 0 i then begin
          let hits = hits_alive r cwords i in
          if hits > 0 then begin
            let score = float_of_int hits /. Float.max r.costs.(i) 1e-9 in
            if !best < 0 || score > !best_score +. 1e-12 then begin
              best := i;
              best_score := score
            end
          end
        end
      done;
      (* [best < 0]: an alive cycle offers no candidate, which only an
         empty cycle of a list instance does *)
      let b = !best in
      if b >= 0 then begin
        r.cut.(b / 63) <- r.cut.(b / 63) lor (1 lsl (b mod 63));
        for w = 0 to cwords - 1 do
          r.covered.(w) <- r.covered.(w) lor r.vmask.((b * cwords) + w)
        done;
        loop ()
      end
    end
  in
  loop ()

exception Budget_exhausted

type search = {
  r : Round.t;
  cwords : int;
  budget : int;
  best : int array;  (* the incumbent, a member bitset *)
  mutable best_cost : float;
  mutable nodes : int;
}

(* Per-cycle hit counts back the covered bitmap out on backtrack: a
   cycle's bit clears only when its last chosen member leaves. *)
let add s i =
  let r = s.r in
  r.chosen.(i / 63) <- r.chosen.(i / 63) lor (1 lsl (i mod 63));
  for c = 0 to r.ncyc - 1 do
    if Round.mem r.vmask (i * s.cwords) c then begin
      r.hit_count.(c) <- r.hit_count.(c) + 1;
      if r.hit_count.(c) = 1 then
        r.covered.(c / 63) <- r.covered.(c / 63) lor (1 lsl (c mod 63))
    end
  done

let remove s i =
  let r = s.r in
  r.chosen.(i / 63) <- r.chosen.(i / 63) land lnot (1 lsl (i mod 63));
  for c = 0 to r.ncyc - 1 do
    if Round.mem r.vmask (i * s.cwords) c then begin
      r.hit_count.(c) <- r.hit_count.(c) - 1;
      if r.hit_count.(c) = 0 then
        r.covered.(c / 63) <- r.covered.(c / 63) land lnot (1 lsl (c mod 63))
    end
  done

(* Branch and bound on the first surviving cycle: one branch per
   candidate of that cycle, ascending. *)
let rec search s chosen_cost =
  s.nodes <- s.nodes + 1;
  if s.nodes > s.budget then raise Budget_exhausted;
  if chosen_cost < s.best_cost -. 1e-12 then begin
    let r = s.r in
    match first_surviving r s.cwords with
    | -1 ->
        Array.blit r.chosen 0 s.best 0 r.words;
        s.best_cost <- chosen_cost
    | cyc ->
        let off = cyc * r.words in
        for i = 0 to r.n - 1 do
          if Round.mem r.hit off i && not (Round.mem r.chosen 0 i) then begin
            add s i;
            search s (chosen_cost +. r.costs.(i));
            remove s i
          end
        done
  end

let solve ?(node_budget = 1_000_000) (r : Round.t) ~cost =
  let cwords = Round.words_for r.ncyc in
  prepare r ~cwords cost;
  greedy_prepared r cwords;
  (* Upper bound: the greedy solution, costed from the memoised costs. *)
  let best_cost = ref 0.0 in
  for i = 0 to r.n - 1 do
    if Round.mem r.cut 0 i then best_cost := !best_cost +. r.costs.(i)
  done;
  let s =
    {
      r;
      cwords;
      budget = node_budget;
      best = Array.sub r.cut 0 r.words;
      best_cost = !best_cost;
      nodes = 0;
    }
  in
  Array.fill r.chosen 0 r.words 0;
  Array.fill r.covered 0 cwords 0;
  Array.fill r.hit_count 0 r.ncyc 0;
  let exact =
    match search s 0.0 with
    | () ->
        Array.blit s.best 0 r.cut 0 r.words;
        true
    | exception Budget_exhausted -> false
  in
  r.nodes <- r.nodes + s.nodes;
  r.solved <- r.solved + r.ncyc;
  exact

(* --- The list instances, as rounds ---------------------------------- *)

(* Unlabelled: every arc gets the one empty label. *)
let round_of t =
  let r = Round.of_cycles (List.map (List.map (fun v -> (v, ""))) t.cycles) in
  let all = Array.make r.words (-1) in
  Round.restrict r ~keep:all ~fallback:all ~last:(-1);
  r

let cut_ids (r : Round.t) =
  let acc = ref [] in
  for i = r.n - 1 downto 0 do
    if Round.mem r.cut 0 i then acc := r.ids.(i) :: !acc
  done;
  !acc

let greedy t =
  let r = round_of t in
  let cwords = Round.words_for r.ncyc in
  prepare r ~cwords (fun i -> t.cost r.ids.(i));
  greedy_prepared r cwords;
  cut_ids r

let exact ?node_budget t =
  let r = round_of t in
  if solve ?node_budget r ~cost:(fun i -> t.cost r.ids.(i)) then
    Some (cut_ids r)
  else None
