module Value = Prb_storage.Value
module Store = Prb_storage.Store
module Entity = Prb_storage.Store.Entity
module Program = Prb_txn.Program
module Expr = Prb_txn.Expr
module Lock_mode = Prb_txn.Lock_mode

type entity = Store.entity
type var = Expr.var

type phase = Growing | Shrinking | Committed

type action =
  | Need_lock of Lock_mode.t * entity
  | Need_unlock of entity
  | Data_step
  | At_end

(* An expression with every variable resolved to its local's slot, so
   evaluation reads the locals array directly instead of looking names up
   through an environment closure. *)
type code =
  | Const of Value.t
  | Slot of int
  | Add of code * code
  | Sub of code * code
  | Mul of code * code
  | Neg of code
  | Min of code * code
  | Max of code * code
  | Mix of code

(* Flat layout (DESIGN.md §16). [create] compiles the program once:

   - lock position [k] is the program's k-th [Lock]; [lock_pc.(k)] is its
     pc, which is also the state index of lock state [k];
   - [operands.(2 pc)] is the lock position of the entity a
     Lock/Unlock/Read/Write at [pc] names, or the local slot an [Assign]
     writes; [operands.(2 pc + 1)] is the local slot a [Read] writes;
   - [exprs.(pc)] is the compiled expression of a Write/Assign;
   - [actions.(pc)] is what {!next_action} returns there.

   Locals live in [locals] by declaration order; the shadow of the entity
   locked at position [k] lives in [shadows.(k)] ([no_stack] when there
   is none). Entity lock positions are unique: a valid program never
   locks an entity twice. *)
type t = {
  id : int;
  program : Program.t;
  ops : Program.op array;
  strategy : Strategy.t;
  store : Store.t;
  budget : int;
  budgets : int array;
      (* per-object budgets under a non-uniform copy allocation: locals by
         slot, then lock positions; empty when the budget is uniform *)
  pool : History_stack.Pool.t;
  n_locks : int;
  lock_pc : int array;
  mutable actions : action array;
  mutable operands : int array;
  mutable exprs : code array;
  mutable locals : History_stack.t array;
  mutable shadows : History_stack.t array;
  mutable pc : int;
  mutable lock_idx : int;
  mutable phase : phase;
  mutable total_executed : int;
  mutable rollbacks : int;
  mutable ops_lost : int;
  mutable monitored_writes : int;
  mutable peak_copies : int;
  mutable live_copies : int;
      (* Σ over locals and shadows of History_stack.n_copies, maintained
         incrementally so the per-operation accounting is O(1) instead of
         re-summing every history on every step. *)
}

let no_stack = History_stack.none

(* --- Compilation ------------------------------------------------------ *)

exception Invalid_program

let no_code = Const (Value.int 0)

let rec slot_in locals v i =
  match locals with
  | [] -> raise Invalid_program
  | (w, _) :: rest -> if String.equal v w then i else slot_in rest v (i + 1)

let rec compile_expr locals = function
  | Expr.Const v -> Const v
  | Expr.Var v -> Slot (slot_in locals v 0)
  | Expr.Add (a, b) -> Add (compile_expr locals a, compile_expr locals b)
  | Expr.Sub (a, b) -> Sub (compile_expr locals a, compile_expr locals b)
  | Expr.Mul (a, b) -> Mul (compile_expr locals a, compile_expr locals b)
  | Expr.Neg a -> Neg (compile_expr locals a)
  | Expr.Min (a, b) -> Min (compile_expr locals a, compile_expr locals b)
  | Expr.Max (a, b) -> Max (compile_expr locals a, compile_expr locals b)
  | Expr.Mix a -> Mix (compile_expr locals a)

let lock_entity ops pc =
  match ops.(pc) with
  | Program.Lock (_, e) -> e
  | Program.Unlock _ | Program.Read _ | Program.Write _ | Program.Assign _ ->
      assert false

let lock_mode ops pc =
  match ops.(pc) with
  | Program.Lock (m, _) -> m
  | Program.Unlock _ | Program.Read _ | Program.Write _ | Program.Assign _ ->
      assert false

(* Position of the lock on [e] among the first [n] lock positions, or -1. *)
let rec position_of ops lock_pc e k n =
  if k >= n then -1
  else if String.equal (lock_entity ops lock_pc.(k)) e then k
  else position_of ops lock_pc e (k + 1) n

(* One pass that both checks the locking discipline and resolves every
   name: the first failed check means {!Program.validate} reports at
   least one violation, so it runs, on that error path only, to produce
   the message. [unlocked.(k)] marks lock positions already released. *)
let compile program n_locks =
  let ops = program.Program.ops in
  let locals = program.Program.locals in
  let n = Array.length ops in
  let lock_pc = Array.make n_locks 0 in
  let unlocked = Array.make n_locks false in
  let operands = Array.make (2 * n) (-1) in
  let exprs = Array.make n no_code in
  let actions = Array.make n Data_step in
  let n_seen = ref 0 and any_unlocked = ref false in
  (* a lock position currently held *)
  let held e =
    let k = position_of ops lock_pc e 0 !n_seen in
    if k < 0 || unlocked.(k) then raise Invalid_program;
    k
  in
  Array.iteri
    (fun pc op ->
      match op with
      | Program.Lock (m, e) ->
          if !any_unlocked || position_of ops lock_pc e 0 !n_seen >= 0 then
            raise Invalid_program;
          let k = !n_seen in
          lock_pc.(k) <- pc;
          n_seen := k + 1;
          operands.(2 * pc) <- k;
          actions.(pc) <- Need_lock (m, e)
      | Program.Unlock e ->
          let k = held e in
          unlocked.(k) <- true;
          any_unlocked := true;
          operands.(2 * pc) <- k;
          actions.(pc) <- Need_unlock e
      | Program.Read (e, v) ->
          operands.(2 * pc) <- held e;
          operands.((2 * pc) + 1) <- slot_in locals v 0
      | Program.Write (e, x) ->
          let k = held e in
          if
            not
              (Lock_mode.equal (lock_mode ops lock_pc.(k)) Lock_mode.Exclusive)
          then raise Invalid_program;
          operands.(2 * pc) <- k;
          exprs.(pc) <- compile_expr locals x
      | Program.Assign (v, x) ->
          operands.(2 * pc) <- slot_in locals v 0;
          exprs.(pc) <- compile_expr locals x)
    ops;
  (lock_pc, actions, operands, exprs)

let invalid program =
  match Program.validate program with
  | Error ((i, v) :: _) ->
      invalid_arg
        (Fmt.str "Txn_state.create: invalid program %s: op %d: %a"
           program.Program.name i Program.pp_violation v)
  | Ok () | Error [] -> assert false

(* Per-object budgets of a non-uniform allocation, computed once: locals
   by slot, then the exclusive lock positions (whose entities get
   shadows). Empty under a uniform budget. *)
let object_budgets budget copy_allocation program lock_pc =
  match copy_allocation with
  | None -> [||]
  | Some _ when budget = max_int -> [||]
  | Some f ->
      let locals = program.Program.locals in
      let n_locals = List.length locals in
      let budgets = Array.make (n_locals + Array.length lock_pc) budget in
      List.iteri
        (fun i (v, _) -> budgets.(i) <- budget + max 0 (f ("L:" ^ v)))
        locals;
      Array.iteri
        (fun k pc ->
          match program.Program.ops.(pc) with
          | Program.Lock (Lock_mode.Exclusive, e) ->
              budgets.(n_locals + k) <- budget + max 0 (f ("G:" ^ e))
          | Program.Lock (Lock_mode.Shared, _)
          | Program.Unlock _ | Program.Read _ | Program.Write _
          | Program.Assign _ -> ())
        lock_pc;
      budgets

let budget_of t i =
  if Array.length t.budgets = 0 then t.budget else t.budgets.(i)

let acquire_locals t =
  List.iteri
    (fun i (_, init) ->
      t.locals.(i) <-
        History_stack.Pool.acquire t.pool ~budget:(budget_of t i) ~created_at:0
          ~initial:init)
    t.program.Program.locals

let create ?copy_allocation ?pool ~strategy ~id ~store program =
  let ops = program.Program.ops in
  let n_locks = Program.n_locks program in
  let lock_pc, actions, operands, exprs =
    try compile program n_locks with Invalid_program -> invalid program
  in
  let budget = Strategy.version_budget strategy in
  let n_locals = List.length program.Program.locals in
  let t =
    {
      id;
      program;
      ops;
      strategy;
      store;
      budget;
      budgets = object_budgets budget copy_allocation program lock_pc;
      pool =
        (match pool with Some p -> p | None -> History_stack.Pool.create ());
      n_locks;
      lock_pc;
      actions;
      operands;
      exprs;
      locals = Array.make n_locals no_stack;
      shadows = Array.make n_locks no_stack;
      pc = 0;
      lock_idx = 0;
      phase = Growing;
      total_executed = 0;
      rollbacks = 0;
      ops_lost = 0;
      monitored_writes = 0;
      peak_copies = 0;
      live_copies = n_locals;
    }
  in
  acquire_locals t;
  t

let id t = t.id
let program t = t.program
let strategy t = t.strategy
let phase t = t.phase

let pp_phase ppf = function
  | Growing -> Fmt.string ppf "growing"
  | Shrinking -> Fmt.string ppf "shrinking"
  | Committed -> Fmt.string ppf "committed"

let pc t = t.pc
let lock_index t = t.lock_idx
let finished t = t.pc >= Array.length t.ops

let next_action t = if finished t then At_end else t.actions.(t.pc)

let current_copies t = t.live_copies

let note_copies t =
  if t.live_copies > t.peak_copies then t.peak_copies <- t.live_copies

let recycle t h = History_stack.Pool.release t.pool h

let[@hot] lock_granted t =
  if finished t then
    invalid_arg "Txn_state.lock_granted: current op is not a lock request"
  else
    match t.ops.(t.pc) with
    | Program.Lock (mode, e) ->
        (* The request at [pc] is lock position [lock_idx]; a rollback
           below it has already emptied its shadow slot. *)
        (match mode with
        | Lock_mode.Exclusive ->
            let k = t.lock_idx in
            t.shadows.(k) <-
              History_stack.Pool.acquire t.pool
                ~budget:(budget_of t (Array.length t.locals + k))
                ~created_at:k ~initial:(Store.get t.store e);
            t.live_copies <- t.live_copies + 1
        | Lock_mode.Shared -> ());
        t.lock_idx <- t.lock_idx + 1;
        t.pc <- t.pc + 1;
        t.total_executed <- t.total_executed + 1;
        note_copies t
    | Program.Unlock _ | Program.Read _ | Program.Write _ | Program.Assign _ ->
        invalid_arg "Txn_state.lock_granted: current op is not a lock request"

let rec eval locals = function
  | Const v -> v
  | Slot i -> History_stack.current locals.(i)
  | Add (a, b) -> Value.add (eval locals a) (eval locals b)
  | Sub (a, b) -> Value.sub (eval locals a) (eval locals b)
  | Mul (a, b) -> Value.mul (eval locals a) (eval locals b)
  | Neg a -> Value.neg (eval locals a)
  | Min (a, b) -> Value.min_v (eval locals a) (eval locals b)
  | Max (a, b) -> Value.max_v (eval locals a) (eval locals b)
  | Mix a -> Value.mix (eval locals a)

(* A write may add a version, coalesce in place, or trade a new version
   against an eviction; charge whatever the history's copy count actually
   did. Writes before the last lock request are monitored (§5). *)
let counted_write t h value =
  let before = History_stack.n_copies h in
  History_stack.write h ~lock_index:t.lock_idx value;
  t.live_copies <- t.live_copies + History_stack.n_copies h - before;
  if t.lock_idx < t.n_locks then t.monitored_writes <- t.monitored_writes + 1

let[@hot] exec_data_op t =
  let pc = t.pc in
  if finished t then
    invalid_arg "Txn_state.exec_data_op: current op is not a data op"
  else begin
    (match t.ops.(pc) with
    | Program.Read (e, _) ->
        (* a held entity without a shadow is held shared *)
        let h = t.shadows.(t.operands.(2 * pc)) in
        let v =
          if h != no_stack then History_stack.current h
          else Store.get t.store e
        in
        counted_write t t.locals.(t.operands.((2 * pc) + 1)) v
    | Program.Write _ ->
        counted_write t
          t.shadows.(t.operands.(2 * pc))
          (eval t.locals t.exprs.(pc))
    | Program.Assign _ ->
        counted_write t
          t.locals.(t.operands.(2 * pc))
          (eval t.locals t.exprs.(pc))
    | Program.Lock _ | Program.Unlock _ ->
        invalid_arg "Txn_state.exec_data_op: current op is not a data op");
    t.pc <- pc + 1;
    t.total_executed <- t.total_executed + 1;
    note_copies t
  end

let[@hot] perform_unlock t =
  if finished t then
    invalid_arg "Txn_state.perform_unlock: current op is not an unlock"
  else
    match t.ops.(t.pc) with
    | Program.Unlock e ->
        let k = t.operands.(2 * t.pc) in
        let h = t.shadows.(k) in
        if h != no_stack then begin
          t.shadows.(k) <- no_stack;
          t.live_copies <- t.live_copies - History_stack.n_copies h;
          Store.install t.store e (History_stack.current h);
          recycle t h
        end;
        t.phase <- Shrinking;
        t.pc <- t.pc + 1;
        t.total_executed <- t.total_executed + 1;
        e
    | Program.Lock _ | Program.Read _ | Program.Write _ | Program.Assign _ ->
        invalid_arg "Txn_state.perform_unlock: current op is not an unlock"

let entity_at t k = lock_entity t.ops t.lock_pc.(k)

let commit t =
  if not (finished t) then invalid_arg "Txn_state.commit: program not finished";
  let finals = ref [] in
  Array.iteri
    (fun k h ->
      if h != no_stack then begin
        finals := (entity_at t k, History_stack.current h) :: !finals;
        t.live_copies <- t.live_copies - History_stack.n_copies h;
        recycle t h;
        t.shadows.(k) <- no_stack
      end)
    t.shadows;
  t.phase <- Committed;
  List.sort (fun (a, _) (b, _) -> Entity.compare a b) !finals

let locks_held t =
  List.init t.lock_idx (fun k ->
      (entity_at t k, lock_mode t.ops t.lock_pc.(k), k))

(* The lock state that acquired [e], or -1 when [e] is not held. *)
let held_position t e = position_of t.ops t.lock_pc e 0 t.lock_idx

let holds t e =
  let k = held_position t e in
  if k < 0 then None else Some (lock_mode t.ops t.lock_pc.(k))

let lock_state_of t e =
  let k = held_position t e in
  if k < 0 then None else Some k

let read_view t e =
  let k = held_position t e in
  if k < 0 then raise Not_found
  else
    let h = if k < Array.length t.shadows then t.shadows.(k) else no_stack in
    if h != no_stack then History_stack.current h
    else
      match lock_mode t.ops t.lock_pc.(k) with
      | Lock_mode.Shared -> Store.get t.store e
      | Lock_mode.Exclusive -> assert false (* shadow must exist *)

let local_value t v =
  match slot_in t.program.Program.locals v 0 with
  | exception Invalid_program -> raise Not_found
  | i ->
      (* a disposed state keeps no locals *)
      if i >= Array.length t.locals then raise Not_found
      else History_stack.current t.locals.(i)

(* Is lock state [q] restorable for every history from index [i] on?
   Empty shadow slots are vacuously restorable. *)
let rec restorable_from hs q i =
  i >= Array.length hs
  || (let h = hs.(i) in
      (h == no_stack || History_stack.is_restorable h q)
      && restorable_from hs q (i + 1))

(* ... for every local and every live shadow: the probe the restorability
   sweeps repeat per lock state, on the arrays as they are. *)
let restorable_all t q =
  restorable_from t.locals q 0 && restorable_from t.shadows q 0

let well_defined t q =
  if q < 0 || q > t.lock_idx then false else restorable_all t q

let well_defined_states t =
  List.filter (restorable_all t) (List.init (t.lock_idx + 1) Fun.id)

(* The pseudo-target [restart_target] (-1) is a full restart: reset to
   pc 0 with declared initial locals and re-execute everything, the
   remove-and-restart of [7,10]. It needs no stored copies and is always
   available. Lock state 0 is distinct: it keeps the pre-lock local
   computation (cost counted from the first lock request, matching
   Figure 1's state-index arithmetic). *)
let restart_target = -1

let rec nearest_restorable t q =
  if q < 0 then restart_target
  else if restorable_all t q then q
  else nearest_restorable t (q - 1)

let rollback_target t e =
  let k = held_position t e in
  if k < 0 then invalid_arg "Txn_state.rollback_target: entity not held"
  else
    match t.strategy with
    | Strategy.Total -> restart_target
    | Strategy.Mcs -> k
    | Strategy.Sdg | Strategy.Sdg_k _ -> nearest_restorable t k

(* State index at a rollback target: the pc of the lock request that
   lock state [q] precedes, or 0 for the restart pseudo-target, whose
   cost is the whole progress. *)
let pc_at_lock_state t q =
  if q = restart_target then 0
  else if q < 0 || q >= t.lock_idx then
    invalid_arg "Txn_state.cost_of_target: not a reached lock state"
  else t.lock_pc.(q)

let cost_of_target t q = t.pc - pc_at_lock_state t q

let cost_to_release t e = cost_of_target t (rollback_target t e)

let counted_truncate t q h =
  if h != no_stack then begin
    let before = History_stack.n_copies h in
    History_stack.truncate h q;
    t.live_copies <- t.live_copies + History_stack.n_copies h - before
  end

(* Entities locked at positions [lo .. lock_idx - 1], newest first. *)
let entities_from t lo =
  let acc = ref [] in
  for k = lo to t.lock_idx - 1 do
    acc := entity_at t k :: !acc
  done;
  !acc

let rollback_to t target =
  if t.phase <> Growing then
    invalid_arg "Txn_state.rollback_to: transaction is not in growing phase";
  if target < restart_target || target > t.lock_idx then
    invalid_arg "Txn_state.rollback_to: target out of range";
  if target >= 0 && not (well_defined t target) then
    invalid_arg "Txn_state.rollback_to: target state is not well-defined";
  let old_pc = t.pc in
  let released = entities_from t (max target 0) in
  (* Shadows of the undone lock states die. *)
  for k = max target 0 to t.lock_idx - 1 do
    let h = t.shadows.(k) in
    if h != no_stack then begin
      t.live_copies <- t.live_copies - History_stack.n_copies h;
      recycle t h;
      t.shadows.(k) <- no_stack
    end
  done;
  if target = restart_target then begin
    (* Full restart: locals are rebuilt from declared initials and the
       whole program, pre-lock prefix included, re-executes. *)
    Array.iter (recycle t) t.locals;
    acquire_locals t;
    t.live_copies <- Array.length t.locals;
    t.lock_idx <- 0;
    t.pc <- 0
  end
  else begin
    Array.iter (counted_truncate t target) t.locals;
    Array.iter (counted_truncate t target) t.shadows;
    (* Execution resumes by re-issuing the request at state [target]. *)
    if target < t.lock_idx then t.pc <- t.lock_pc.(target);
    t.lock_idx <- target
  end;
  t.rollbacks <- t.rollbacks + 1;
  t.ops_lost <- t.ops_lost + (old_pc - t.pc);
  released

(* Hand every remaining history back to the pool and drop the compiled
   code when the scheduler retires the transaction (after its accounting
   has been read). Only the lock positions stay, so the lock queries keep
   answering; the state must not be driven afterwards. *)
let dispose t =
  Array.iter (recycle t) t.locals;
  Array.iter (fun h -> if h != no_stack then recycle t h) t.shadows;
  t.locals <- [||];
  t.shadows <- [||];
  t.actions <- [||];
  t.operands <- [||];
  t.exprs <- [||];
  t.live_copies <- 0

let total_executed t = t.total_executed
let n_rollbacks t = t.rollbacks
let ops_lost t = t.ops_lost
let peak_copies t = max t.peak_copies (current_copies t)
let monitored_writes t = t.monitored_writes
let entry_order t = t.id

let pp ppf t =
  Fmt.pf ppf
    "@[<h>T%d[%s pc=%d lock_idx=%d %a locks={%a} copies=%d rollbacks=%d]@]"
    t.id t.program.Program.name t.pc t.lock_idx pp_phase t.phase
    Fmt.(list ~sep:(any ", ") (fun ppf (e, m, k) ->
             pf ppf "%s:%a@@%d" e Lock_mode.pp m k))
    (locks_held t) (current_copies t) t.rollbacks
