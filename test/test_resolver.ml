(* Tests for Prb_core.Resolver and Policy: victim selection over cycle
   sets, including the Figure 1 configuration. *)

module Resolver = Prb_core.Resolver
module Policy = Prb_core.Policy
module Rng = Prb_util.Rng
module Round = Prb_graph.Round
module Cutset = Prb_graph.Cutset
module W = Prb_wfg.Waits_for

let checkb = Alcotest.(check bool)

let choose ?(policy = Policy.Min_cost) ?(requester = 1)
    ?(entry = fun v -> v) ?(cost = fun _ es -> List.length es) cycles =
  Resolver.choose ~policy ~requester ~entry_order:entry ~release_cost:cost
    ~rng:(Rng.make 1) cycles

let victims d = List.map fst d.Resolver.victims

let test_policy_string_roundtrip () =
  List.iter
    (fun p ->
      checkb "round-trip" true (Policy.of_string (Policy.to_string p) = Some p))
    Policy.all;
  checkb "garbage" true (Policy.of_string "nope" = None)

(* Figure 1: cycle over T2,T3,T4 with costs 4,6,5 — min-cost picks T2. *)
let fig1_cycles = [ [ (4, "e"); (3, "c"); (2, "b") ] ]

let fig1_cost v _ = match v with 2 -> 4 | 3 -> 6 | 4 -> 5 | _ -> 99

let test_min_cost_fig1 () =
  let d = choose ~requester:2 ~cost:fig1_cost fig1_cycles in
  checkb "T2 chosen" true (victims d = [ 2 ]);
  checkb "optimal" true d.Resolver.optimal;
  checkb "releases b" true (d.Resolver.victims = [ (2, [ "b" ]) ])

let test_requester_policy () =
  let d = choose ~policy:Policy.Requester ~requester:2 ~cost:fig1_cost fig1_cycles in
  checkb "requester chosen" true (victims d = [ 2 ])

let test_youngest_policy () =
  let d = choose ~policy:Policy.Youngest ~requester:2 ~cost:fig1_cost fig1_cycles in
  checkb "max entry order chosen" true (victims d = [ 4 ])

let test_ordered_restricts_to_younger () =
  (* requester 3: only 4 is younger; min cost among {4} = 4 even though 2
     is cheaper overall *)
  let cycles = [ [ (4, "e"); (3, "c"); (2, "b") ] ] in
  let d = choose ~policy:Policy.Ordered_min_cost ~requester:3 ~cost:fig1_cost cycles in
  checkb "older T2 protected" true (victims d = [ 4 ])

let test_ordered_falls_back_to_requester () =
  (* requester 4 is the youngest: no eligible younger member, so it rolls
     itself back *)
  let d = choose ~policy:Policy.Ordered_min_cost ~requester:4 ~cost:fig1_cost fig1_cycles in
  checkb "requester fallback" true (victims d = [ 4 ])

let test_multi_cycle_shared_vertex () =
  (* Figure 3(c): two cycles, both through requester 1. With uniform
     costs the shared vertex is the optimal cut. *)
  let cycles = [ [ (2, "f"); (1, "a") ]; [ (3, "f"); (1, "b") ] ] in
  let d = choose ~requester:1 ~cost:(fun _ _ -> 1) cycles in
  checkb "shared vertex cut" true (victims d = [ 1 ]);
  checkb "collects both entities" true
    (List.assoc 1 d.Resolver.victims = [ "a"; "b" ])

let test_multi_cycle_split_cut () =
  let cycles = [ [ (2, "f"); (1, "a") ]; [ (3, "f"); (1, "b") ] ] in
  let cost v _ = if v = 1 then 10 else 1 in
  let d = choose ~requester:1 ~cost cycles in
  checkb "split cut {2,3}" true (victims d = [ 2; 3 ])

let test_random_policy_breaks_all () =
  let cycles = [ [ (2, "f"); (1, "a") ]; [ (3, "g"); (1, "b") ] ] in
  let d = choose ~policy:Policy.Random_victim ~requester:1 cycles in
  (* whatever was picked must hit both cycles *)
  let hit cycle = List.exists (fun (m, _) -> List.mem m (victims d)) cycle in
  checkb "all cycles hit" true (List.for_all hit cycles)

let test_empty_cycles_rejected () =
  Alcotest.check_raises "no cycles" (Invalid_argument "Resolver.choose: no cycles")
    (fun () -> ignore (choose []))

let test_requester_missing_rejected () =
  Alcotest.check_raises "requester missing"
    (Invalid_argument "Resolver.choose: requester missing from a cycle")
    (fun () -> ignore (choose ~requester:9 fig1_cycles))

(* qcheck: for every policy, the decision is a cut (victims hit every
   cycle). *)
let arbitrary_cycles requester =
  QCheck.Gen.(
    list_size (int_range 1 4)
      (list_size (int_range 1 3)
         (pair (int_range 2 6) (oneofl [ "a"; "b"; "c" ])))
    |> map (fun cycles ->
           List.map (fun c -> ((requester, "r") :: c)) cycles))

let qcheck_decision_is_cut policy =
  QCheck.Test.make
    ~name:(Printf.sprintf "decision hits every cycle (%s)" (Policy.to_string policy))
    ~count:300
    (QCheck.make (arbitrary_cycles 1))
    (fun cycles ->
      let d =
        Resolver.choose ~policy ~requester:1 ~entry_order:Fun.id
          ~release_cost:(fun v es -> v + List.length es)
          ~rng:(Rng.make 7) cycles
      in
      let vs = victims d in
      List.for_all (fun c -> List.exists (fun (m, _) -> List.mem m vs) c) cycles)

(* qcheck: victims' entity lists cover exactly their cycle arcs *)
let qcheck_victim_entities_sound =
  QCheck.Test.make ~name:"victim entity lists come from their arcs" ~count:300
    (QCheck.make (arbitrary_cycles 1))
    (fun cycles ->
      let d =
        Resolver.choose ~policy:Policy.Min_cost ~requester:1
          ~entry_order:Fun.id
          ~release_cost:(fun _ es -> List.length es)
          ~rng:(Rng.make 7) cycles
      in
      List.for_all
        (fun (v, entities) ->
          List.for_all
            (fun e ->
              List.exists (List.exists (fun (m, e') -> m = v && e = e')) cycles)
            entities)
        d.Resolver.victims)

(* The cut solver consults the cost function once per candidate: the
   greedy incumbent's bound is read from the memoised costs, not costed
   again. Greedy takes T3 (two cycles at cost 3) and then T2; the optimum
   is T1 alone at cost 4, so branch and bound runs past the incumbent. *)
let test_cost_once_per_candidate () =
  let calls = ref 0 in
  let cost v es =
    incr calls;
    (match v with 1 -> 4 | 2 -> 3 | 3 -> 3 | _ -> 9) + (0 * List.length es)
  in
  let cycles =
    [
      [ (3, "a"); (1, "r") ];
      [ (2, "b"); (3, "c"); (1, "r") ];
      [ (2, "d"); (1, "r") ];
    ]
  in
  let d = choose ~cost cycles in
  checkb "T1 alone" true (victims d = [ 1 ]);
  Alcotest.(check int) "one cost call per candidate" 3 !calls;
  let calls = ref 0 in
  let inst =
    {
      Cutset.cycles = [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 1 ]; [ 3; 4 ] ];
      cost =
        (fun v ->
          incr calls;
          float_of_int v);
    }
  in
  checkb "exact" true (Cutset.exact inst = Some [ 1; 3 ]);
  Alcotest.(check int) "Cutset.exact: one call per candidate" 4 !calls

(* --- The enumerator's round against the list-built round -------------- *)

(* A random waits-for graph: [waits] lists (waiter, holders, entity).
   Narrow cases are small and dense, so cycles with the same vertex set
   in different orders are common; wide cases are a ring of 64–72
   transactions with chords, one strongly connected component wider than
   a 63-bit word. *)
type graph_case = {
  n : int;
  waits : (int * int list * int) list;
  root : int;
  limit : int;
  entry : int array;
  immune : bool array;
}

let gen_graph_case =
  let open QCheck.Gen in
  bool >>= fun wide_roll ->
  int_range 0 7 >>= fun w ->
  let wide = wide_roll && w = 0 in
  (if wide then int_range 64 72 else int_range 3 9) >>= fun n ->
  let gen_waits =
    if wide then
      list_repeat n (pair (float_bound_inclusive 1.0) (int_range 0 (n - 1)))
      >|= List.mapi (fun i (p, chord) ->
              let next = (i + 1) mod n in
              let hs = if p < 0.15 && chord <> i then [ next; chord ] else [ next ] in
              (i, hs, i mod 5))
    else
      list_repeat n
        (triple (float_bound_inclusive 1.0)
           (list_size (int_range 1 3) (int_range 0 (n - 1)))
           (int_range 0 3))
      >|= List.mapi (fun i (p, hs, e) ->
              (i, (if p < 0.85 then List.filter (fun h -> h <> i) hs else []), e))
  in
  gen_waits >>= fun waits ->
  int_range 0 (n - 1) >>= fun root ->
  oneofl [ 1; 2; 3; 8; 256 ] >>= fun limit ->
  array_repeat n (int_range 0 n) >>= fun entry ->
  bool >>= fun requester_youngest ->
  array_repeat n (map (fun x -> x < 3) (int_range 0 9)) >|= fun immune ->
  (* a requester younger than everyone leaves every cycle without an
     eligible member under [Ordered_min_cost]: the requester fallback *)
  if requester_youngest then entry.(root) <- n + 1;
  { n; waits; root; limit; entry; immune }

let print_graph_case c =
  Printf.sprintf "root %d limit %d waits %s" c.root c.limit
    (String.concat "; "
       (List.map
          (fun (w, hs, e) ->
            Printf.sprintf "%d->[%s]:e%d" w
              (String.concat "," (List.map string_of_int hs))
              e)
          c.waits))

let build_graph c =
  let g = W.create () in
  for v = 0 to c.n - 1 do
    W.add_txn g v
  done;
  List.iter
    (fun (w, hs, e) ->
      match List.sort_uniq Int.compare hs with
      | [] -> ()
      | holders -> W.set_wait g ~waiter:w ~holders ("e" ^ string_of_int e))
    c.waits;
  g

(* The cycles in the resolver's list form, labelled from the graph the
   way the kernel labelled them before it filled rounds: the arc into a
   member carries its predecessor's wait entity, the requester last. *)
let labelled g requester cycle =
  let label u v =
    match W.wait_label g u v with Some e -> e | None -> assert false
  in
  let rec arcs = function
    | [] -> []
    | [ last ] -> [ (requester, label last requester) ]
    | u :: (v :: _ as rest) -> (v, label u v) :: arcs rest
  in
  arcs cycle

let case_cost v es =
  ((v * 7) + List.fold_left (fun a e -> a + Hashtbl.hash e) 0 es) mod 5

let qcheck_enumerated_round_matches_lists =
  QCheck.Test.make ~name:"enumerated round decides as the list-built round"
    ~count:400
    (QCheck.make ~print:print_graph_case gen_graph_case)
    (fun c ->
      let g = build_graph c in
      let r = Round.create () in
      W.enumerate ~limit:c.limit g c.root r;
      let lists =
        List.map (labelled g c.root) (W.cycles_through ~limit:c.limit g c.root)
      in
      Round.to_cycles r = lists
      && (r.Round.ncyc = 0
         || List.for_all
              (fun policy ->
                let decide round =
                  Resolver.decide ~immune:(fun v -> c.immune.(v)) ~policy
                    ~requester:c.root
                    ~entry_order:(fun v -> c.entry.(v))
                    ~release_cost:case_cost ~rng:(Rng.make 5) round
                in
                let d = decide r in
                d = decide (Round.of_cycles lists)
                && d
                   = Resolver.choose ~immune:(fun v -> c.immune.(v)) ~policy
                       ~requester:c.root
                       ~entry_order:(fun v -> c.entry.(v))
                       ~release_cost:case_cost ~rng:(Rng.make 5) lists)
              Policy.all))

(* The multi-site engine's two round filters — locality (every arc label
   on the site of the first) and visibility (every arc label on a site
   whose shipment arrived) — keep exactly what [List.filter] keeps on the
   labelled cycles, and the filtered round decides as a round built from
   the survivors. *)
let site e = Hashtbl.hash e mod 3

let is_local_list = function
  | [] -> true
  | (_, e0) :: rest -> List.for_all (fun (_, e) -> site e = site e0) rest

let check_filter ~name keep_round keep_list cycles =
  let r = Round.of_cycles cycles in
  Round.filter r (keep_round r);
  let kept = List.filter keep_list cycles in
  Alcotest.(check (list (list (pair int string)))) name kept (Round.to_cycles r);
  if kept <> [] then
    checkb (name ^ ": decision") true
      (Resolver.decide ~policy:Policy.Min_cost ~requester:1 ~entry_order:Fun.id
         ~release_cost:case_cost ~rng:(Rng.make 1) r
      = choose ~cost:case_cost kept)

let test_round_filters () =
  let cycles =
    [
      [ (2, "a"); (1, "b") ];
      [ (3, "a"); (2, "c"); (1, "d") ];
      [ (2, "e"); (3, "f"); (1, "a") ];
      [ (4, "b"); (1, "b") ];
    ]
  in
  List.iter
    (fun vis ->
      check_filter ~name:"visibility"
        (fun r c -> Round.all_arcs r c (fun e -> vis.(site e)))
        (List.for_all (fun (_, e) -> vis.(site e)))
        cycles)
    [ [| true; true; true |]; [| true; false; true |]; [| false; true; true |] ];
  check_filter ~name:"locality"
    (fun r c -> Round.same_arcs r c site)
    is_local_list cycles;
  let rng = Random.State.make [| 3 |] in
  for _ = 1 to 200 do
    let cs = QCheck.Gen.generate1 ~rand:rng (arbitrary_cycles 1) in
    check_filter ~name:"locality (random)"
      (fun r c -> Round.same_arcs r c site)
      is_local_list cs
  done

let () =
  Alcotest.run "prb_resolver"
    [
      ( "policies",
        [
          Alcotest.test_case "string round-trip" `Quick test_policy_string_roundtrip;
          Alcotest.test_case "min-cost on Figure 1" `Quick test_min_cost_fig1;
          Alcotest.test_case "requester" `Quick test_requester_policy;
          Alcotest.test_case "youngest" `Quick test_youngest_policy;
          Alcotest.test_case "ordered protects elders" `Quick
            test_ordered_restricts_to_younger;
          Alcotest.test_case "ordered requester fallback" `Quick
            test_ordered_falls_back_to_requester;
        ] );
      ( "multi-cycle",
        [
          Alcotest.test_case "shared vertex cut" `Quick test_multi_cycle_shared_vertex;
          Alcotest.test_case "split cut" `Quick test_multi_cycle_split_cut;
          Alcotest.test_case "random breaks all" `Quick test_random_policy_breaks_all;
          Alcotest.test_case "empty rejected" `Quick test_empty_cycles_rejected;
          Alcotest.test_case "requester missing rejected" `Quick
            test_requester_missing_rejected;
          Alcotest.test_case "cost once per candidate" `Quick
            test_cost_once_per_candidate;
          Alcotest.test_case "round filters" `Quick test_round_filters;
        ] );
      ( "properties",
        List.map (fun p -> QCheck_alcotest.to_alcotest (qcheck_decision_is_cut p)) Policy.all
        @ [
            QCheck_alcotest.to_alcotest qcheck_victim_entities_sound;
            QCheck_alcotest.to_alcotest qcheck_enumerated_round_matches_lists;
          ] );
    ]
