module Cutset = Prb_graph.Cutset
module Round = Prb_graph.Round
module Rng = Prb_util.Rng
module Txn_id = Prb_txn.Txn_id
module Entity = Prb_storage.Store.Entity

type txn = Txn_id.t
type entity = Prb_storage.Store.entity
type cycle = (txn * entity) list

type decision = {
  victims : (txn * entity list) list;
  optimal : bool;
  starved_fallback : bool;
}

(* Every policy reads the round (DESIGN §15): members ranked by id, each
   cycle as a member sequence and a member bitset, and each member's
   needs — the label slots of its inbound arcs, collected once while the
   round was filled. A member's released-entity set is its needs' labels
   sorted and deduped, exactly what [concat_map] + [sort_uniq] over the
   cycle list produced, so decisions are unchanged. The cost function is
   consulted once per cut candidate (the cut solver memoises it). *)
let needed (r : Round.t) i =
  List.sort_uniq Entity.compare (Round.needed_labels r i)

(* [chosen] is a member bitset, so the victims come out by ascending
   member index, which is ascending txn id. *)
let decision_of (r : Round.t) ~optimal ~immune chosen =
  let victims = ref [] and starved = ref false in
  for i = r.n - 1 downto 0 do
    if Round.mem chosen 0 i then begin
      let v = r.ids.(i) in
      victims := (v, needed r i) :: !victims;
      (* the starvation guard had to be overridden: some cycle offered no
         non-immune victim, so an immune transaction is rolled back anyway
         (deadlocks must break; immunity bends before liveness does) *)
      if immune v then starved := true
    end
  done;
  { victims = !victims; optimal; starved_fallback = !starved }

let add_member (set : int array) i =
  set.(i / 63) <- set.(i / 63) lor (1 lsl (i mod 63))

let rec meets (a : int array) off (b : int array) w words =
  w < words && (a.(off + w) land b.(w) <> 0 || meets a off b (w + 1) words)

(* Iteratively break surviving cycles, picking a member of the first
   surviving cycle by [pick]. A cycle once hit stays hit, so one pass in
   cycle order visits the first survivor of every iteration. *)
let iterative_pick (r : Round.t) pick =
  let chosen = Array.make r.words 0 in
  for c = 0 to r.ncyc - 1 do
    if not (meets r.masks (c * r.words) chosen 0 r.words) then
      add_member chosen (pick c)
  done;
  chosen

(* The members of cycle [c] a single-victim policy picks among, in
   cycle order: its non-immune members when any exist, else the whole
   cycle (same override rule as the cut). *)
let pickable (r : Round.t) ~immune c =
  let s = r.start.(c) in
  let all = List.init (r.start.(c + 1) - s) (fun j -> r.seq.(s + j)) in
  match List.filter (fun i -> not (immune r.ids.(i))) all with
  | [] -> all
  | kept -> kept

let min_cost_cut (r : Round.t) ~requester ~release_cost ~eligible ~immune =
  (* Hitting set over cycles restricted to eligible members. Starvation-
     immune members are dropped first; a cycle with only immune eligible
     members keeps them (immunity bends before liveness — the caller reads
     [starved_fallback] off the decision). A cycle with no eligible member
     at all falls back to the requester (which is on every cycle), so a
     cut always exists. *)
  let keep = Array.make r.words 0 and fallback = Array.make r.words 0 in
  for i = 0 to r.n - 1 do
    let v = r.ids.(i) in
    if eligible v then begin
      add_member fallback i;
      if not (immune v) then add_member keep i
    end
  done;
  Round.restrict r ~keep ~fallback ~last:requester;
  let optimal =
    Cutset.solve r ~cost:(fun i ->
        float_of_int (release_cost r.ids.(i) (needed r i)))
  in
  (Array.sub r.cut 0 r.words, optimal)

let decide ?(immune = fun _ -> false) ~policy ~requester ~entry_order
    ~release_cost ~rng (r : Round.t) =
  let req = Round.member_index r requester in
  match policy with
  | Policy.Requester ->
      let chosen = Array.make r.words 0 in
      add_member chosen req;
      decision_of r ~optimal:false ~immune chosen
  | Policy.Min_cost ->
      let chosen, optimal =
        min_cost_cut r ~requester:req ~release_cost
          ~eligible:(fun _ -> true)
          ~immune
      in
      decision_of r ~optimal ~immune chosen
  | Policy.Ordered_min_cost ->
      (* Theorem 2 with entry time as the partial order: a conflict may
         only preempt transactions that entered strictly later than the
         requester (so the oldest live transaction is never preempted and
         must eventually commit); a cycle whose members are all older
         falls back to rolling the requester itself. *)
      let requester_order = entry_order requester in
      let eligible v = entry_order v > requester_order in
      let chosen, optimal =
        min_cost_cut r ~requester:req ~release_cost ~eligible ~immune
      in
      decision_of r ~optimal ~immune chosen
  | Policy.Youngest ->
      (* The latest entrant among the pickable members, seeded with the
         requester when it is pickable (else the first of them); ties
         keep the earlier. *)
      let pick c =
        let candidates = pickable r ~immune c in
        let seed =
          if List.exists (Int.equal req) candidates then req
          else List.hd candidates
        in
        let order i = entry_order r.ids.(i) in
        List.fold_left
          (fun best i -> if order i > order best then i else best)
          seed candidates
      in
      decision_of r ~optimal:false ~immune (iterative_pick r pick)
  | Policy.Random_victim ->
      let pick c =
        let candidates = pickable r ~immune c in
        List.nth candidates (Rng.int rng (List.length candidates))
      in
      decision_of r ~optimal:false ~immune (iterative_pick r pick)

let choose ?immune ~policy ~requester ~entry_order ~release_cost ~rng cycles =
  if cycles = [] then invalid_arg "Resolver.choose: no cycles";
  List.iter
    (fun cycle ->
      if not (List.exists (fun (m, _) -> Txn_id.equal m requester) cycle) then
        invalid_arg "Resolver.choose: requester missing from a cycle")
    cycles;
  decide ?immune ~policy ~requester ~entry_order ~release_cost ~rng
    (Round.of_cycles cycles)
