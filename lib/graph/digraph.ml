module Iset = Set.Make (Int)

type t = {
  succs : (int, Iset.t ref) Hashtbl.t;
  preds : (int, Iset.t ref) Hashtbl.t;
  mutable n_edges : int;
}

let create () =
  { succs = Hashtbl.create 64; preds = Hashtbl.create 64; n_edges = 0 }

let copy t =
  let dup tbl =
    let out = Hashtbl.create (Hashtbl.length tbl) in
    Hashtbl.iter (fun k v -> Hashtbl.replace out k (ref !v)) tbl;
    out
  in
  { succs = dup t.succs; preds = dup t.preds; n_edges = t.n_edges }

let add_vertex t v =
  if not (Hashtbl.mem t.succs v) then begin
    Hashtbl.replace t.succs v (ref Iset.empty);
    Hashtbl.replace t.preds v (ref Iset.empty)
  end

let mem_vertex t v = Hashtbl.mem t.succs v

let adj tbl v = match Hashtbl.find_opt tbl v with None -> Iset.empty | Some s -> !s

let mem_edge t u v = Iset.mem v (adj t.succs u)

let remove_vertex t v =
  if mem_vertex t v then begin
    let out = adj t.succs v and inc = adj t.preds v in
    t.n_edges <-
      t.n_edges - Iset.cardinal out - Iset.cardinal inc
      + (if Iset.mem v out then 1 else 0);
    Iset.iter
      (fun w ->
        match Hashtbl.find_opt t.preds w with
        | Some s -> s := Iset.remove v !s
        | None -> ())
      out;
    Iset.iter
      (fun w ->
        match Hashtbl.find_opt t.succs w with
        | Some s -> s := Iset.remove v !s
        | None -> ())
      inc;
    Hashtbl.remove t.succs v;
    Hashtbl.remove t.preds v
  end

let add_edge t u v =
  add_vertex t u;
  add_vertex t v;
  let su = Hashtbl.find t.succs u and pv = Hashtbl.find t.preds v in
  if not (Iset.mem v !su) then t.n_edges <- t.n_edges + 1;
  su := Iset.add v !su;
  pv := Iset.add u !pv

let remove_edge t u v =
  (match Hashtbl.find_opt t.succs u with
  | Some s ->
      if Iset.mem v !s then begin
        t.n_edges <- t.n_edges - 1;
        s := Iset.remove v !s
      end
  | None -> ());
  match Hashtbl.find_opt t.preds v with
  | Some s -> s := Iset.remove u !s
  | None -> ()

let succ t v = Iset.elements (adj t.succs v)
let pred t v = Iset.elements (adj t.preds v)

(* Allocation-free traversal of a vertex's neighbours, in ascending order
   (same order as [succ]/[pred], so traversals stay deterministic). The
   hot paths below use these instead of materialising element lists. *)
let iter_succ f t v = Iset.iter f (adj t.succs v)
let iter_pred f t v = Iset.iter f (adj t.preds v)
let fold_succ f t v init = Iset.fold f (adj t.succs v) init
let out_degree t v = Iset.cardinal (adj t.succs v)
let in_degree t v = Iset.cardinal (adj t.preds v)

let vertices t =
  Hashtbl.fold (fun v _ acc -> v :: acc) t.succs [] |> List.sort compare

let edges t =
  Hashtbl.fold
    (fun u s acc -> Iset.fold (fun v acc -> (u, v) :: acc) !s acc)
    t.succs []
  |> List.sort compare

let n_vertices t = Hashtbl.length t.succs
let n_edges t = t.n_edges

let reachable t source =
  let seen = Hashtbl.create 16 in
  let rec visit v =
    Iset.iter
      (fun w ->
        if not (Hashtbl.mem seen w) then begin
          Hashtbl.replace seen w ();
          visit w
        end)
      (adj t.succs v)
  in
  visit source;
  seen

exception Found_target

(* Early-exit DFS: stop the moment [target] shows up among the frontier,
   instead of materialising the whole reachable set first. Iterative, so a
   long chain cannot overflow the stack. *)
let search_from t sources target =
  let seen = Hashtbl.create 16 in
  let stack = Stack.create () in
  let expand v =
    Iset.iter
      (fun w ->
        if w = target then raise Found_target
        else if not (Hashtbl.mem seen w) then begin
          Hashtbl.replace seen w ();
          Stack.push w stack
        end)
      (adj t.succs v)
  in
  try
    List.iter expand sources;
    while not (Stack.is_empty stack) do
      expand (Stack.pop stack)
    done;
    false
  with Found_target -> true

let path_exists t u v = search_from t [ u ] v
let path_exists_from_any t sources v = search_from t sources v

(* Iterative DFS with colouring; on finding a back edge, reconstruct the
   cycle from the recursion stack. *)
let find_cycle t =
  let white = 0 and grey = 1 and black = 2 in
  let colour = Hashtbl.create 64 in
  let col v = match Hashtbl.find_opt colour v with None -> white | Some c -> c in
  let result = ref None in
  let rec dfs stack v =
    Hashtbl.replace colour v grey;
    let stack = v :: stack in
    iter_succ
      (fun w ->
        if !result = None then
          match col w with
          | c when c = grey ->
              (* Slice the stack from [v] back to [w]. *)
              let rec take acc = function
                | [] -> acc
                | x :: xs -> if x = w then x :: acc else take (x :: acc) xs
              in
              result := Some (take [] stack)
          | c when c = white -> dfs stack w
          | _ -> ())
      t v;
    Hashtbl.replace colour v black
  in
  let rec try_roots = function
    | [] -> ()
    | v :: rest ->
        if !result = None && col v = white then dfs [] v;
        if !result = None then try_roots rest
  in
  try_roots (vertices t);
  !result

let has_cycle t = find_cycle t <> None

(* Vertices reachable from [source] along edges of [adj]. *)
let reach_set adj source =
  let seen = Hashtbl.create 16 in
  let rec visit v =
    Iset.iter
      (fun w ->
        if not (Hashtbl.mem seen w) then begin
          Hashtbl.replace seen w ();
          visit w
        end)
      (adj v)
  in
  visit source;
  seen

let cycles_through ?(limit = 10_000) ?budget t root =
  if not (mem_vertex t root) then []
  else begin
    (* Every simple cycle through [root] lies inside [root]'s strongly
       connected component, so restrict the search to vertices that both
       are reachable from the root and reach it. This makes the
       cycle-free case linear and ensures every explored path can still
       close into a cycle, so the [limit] fills quickly. [budget]
       additionally caps edge traversals — even within an SCC the
       simple-path space can be exponential. Truncation is safe for
       deadlock resolution: breaking the reported cycles and
       re-enumerating reaches the rest. *)
    let forward = reach_set (fun v -> adj t.succs v) root in
    let backward = reach_set (fun v -> adj t.preds v) root in
    let in_scc v = Hashtbl.mem forward v && Hashtbl.mem backward v in
    if not (Hashtbl.mem forward root) then []
      (* root is on no cycle at all *)
    else begin
      let budget =
        match budget with
        | Some b -> b
        | None ->
            if limit > (max_int / 200) - 50 then max_int
            else 200 * (limit + 50)
      in
      let cycles = ref [] in
      let count = ref 0 in
      let steps = ref 0 in
      let on_path = Hashtbl.create 16 in
      let exhausted () = !count >= limit || !steps >= budget in
      let rec dfs path v =
        if not (exhausted ()) then
          iter_succ
            (fun w ->
              incr steps;
              if not (exhausted ()) then
                if w = root then begin
                  cycles := List.rev path :: !cycles;
                  incr count
                end
                else if in_scc w && not (Hashtbl.mem on_path w) then begin
                  Hashtbl.replace on_path w ();
                  dfs (w :: path) w;
                  Hashtbl.remove on_path w
                end)
            t v
      in
      Hashtbl.replace on_path root ();
      dfs [ root ] root;
      List.rev !cycles
    end
  end

let cycle_through t root =
  match cycles_through ~limit:1 t root with [] -> None | c :: _ -> Some c

let is_forest_inverted t =
  List.for_all (fun v -> out_degree t v <= 1) (vertices t) && not (has_cycle t)

(* Tarjan, restricted to the subgraph reachable from [roots]. Every SCC
   fully reachable from a root is reported exactly; vertices unreachable
   from all roots are not visited at all. [scc] passes every vertex. *)
let scc_from t roots =
  let index = Hashtbl.create 64 in
  let lowlink = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] in
  let next_index = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !next_index;
    Hashtbl.replace lowlink v !next_index;
    incr next_index;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    iter_succ
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      t v;
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if w = v then w :: acc else pop (w :: acc)
      in
      components := List.sort compare (pop []) :: !components
    end
  in
  List.iter
    (fun v ->
      if mem_vertex t v && not (Hashtbl.mem index v) then strongconnect v)
    roots;
  List.rev !components

let scc t = scc_from t (vertices t)

let cyclic_vertices_from t roots =
  List.concat_map
    (fun comp ->
      match comp with
      | [ v ] -> if mem_edge t v v then [ v ] else []
      | _ -> comp)
    (scc_from t roots)
  |> List.sort compare

let topological_sort t =
  if has_cycle t then None
  else begin
    let seen = Hashtbl.create 64 in
    let order = ref [] in
    let rec visit v =
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.replace seen v ();
        iter_succ visit t v;
        order := v :: !order
      end
    in
    List.iter visit (vertices t);
    Some !order
  end
