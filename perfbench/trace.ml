(* Spans recorded from outside the engine, around its public calls.

   Every step of a traced run becomes one span: its start and duration
   in nanoseconds, its class, and the part of it spent in child spans.
   Every resolution round of the central engine becomes a resolver span:
   a replay of [Resolver.choose] run inside the deadlock hook, with the
   step it happened in as parent and the requesting transaction. Both
   live in arrays sized before the run and grown only if a run outgrows
   them; nothing is written out until the run is over. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* The same clock, in the seconds the engines' [config.clock] expects. *)
let clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Step classes, named by the public counter a step moved; checked in
   this order, so a step that committed and enumerated is a commit. *)
let commit = 0
let resolve = 1
let block = 2
let grant = 3
let other = 4
let class_names = [| "commit"; "resolve"; "block"; "grant"; "other" |]
let n_classes = Array.length class_names

type t = {
  mutable n_steps : int;
  mutable st_start : int array;
  mutable st_dur : int array;
  mutable st_class : int array;
  mutable st_child : int array;  (** ns of the step spent in child spans *)
  mutable n_choose : int;
  mutable ch_parent : int array;  (** step id *)
  mutable ch_requester : int array;
  mutable ch_dur : int array;
  mutable ch_cycles : int array;
  mutable ch_victims : int array;
  mutable ch_exact : int array;  (** 1 when the decision came from the exact solver *)
  mutable cur_child : int;  (** child ns accumulated in the running step *)
  mutable mismatches : int;  (** replayed decisions that differ from the engine's *)
  mutable resolve_detect_s : float;
      (** detection check and cycle enumeration seconds inside resolve steps *)
  mutable engine_ns : int;  (** the traced loop, end to end *)
  mutable retained_peak : int;  (** most history intervals retained after a commit *)
}

let create ~steps ~rounds =
  let steps = max 1024 steps and rounds = max 64 rounds in
  {
    n_steps = 0;
    st_start = Array.make steps 0;
    st_dur = Array.make steps 0;
    st_class = Array.make steps 0;
    st_child = Array.make steps 0;
    n_choose = 0;
    ch_parent = Array.make rounds 0;
    ch_requester = Array.make rounds 0;
    ch_dur = Array.make rounds 0;
    ch_cycles = Array.make rounds 0;
    ch_victims = Array.make rounds 0;
    ch_exact = Array.make rounds 0;
    cur_child = 0;
    mismatches = 0;
    resolve_detect_s = 0.0;
    engine_ns = 0;
    retained_peak = 0;
  }

let grow a = Array.append a (Array.make (Array.length a) 0)

let record_step t ~start ~dur ~cls =
  let i = t.n_steps in
  if i = Array.length t.st_start then begin
    t.st_start <- grow t.st_start;
    t.st_dur <- grow t.st_dur;
    t.st_class <- grow t.st_class;
    t.st_child <- grow t.st_child
  end;
  t.st_start.(i) <- start;
  t.st_dur.(i) <- dur;
  t.st_class.(i) <- cls;
  t.st_child.(i) <- t.cur_child;
  t.cur_child <- 0;
  t.n_steps <- i + 1

let note_retained t n = if n > t.retained_peak then t.retained_peak <- n

let record_choose t ~requester ~dur ~cycles ~victims ~exact =
  let i = t.n_choose in
  if i = Array.length t.ch_parent then begin
    t.ch_parent <- grow t.ch_parent;
    t.ch_requester <- grow t.ch_requester;
    t.ch_dur <- grow t.ch_dur;
    t.ch_cycles <- grow t.ch_cycles;
    t.ch_victims <- grow t.ch_victims;
    t.ch_exact <- grow t.ch_exact
  end;
  (* The step that is running gets the id [n_steps] once it is recorded. *)
  t.ch_parent.(i) <- t.n_steps;
  t.ch_requester.(i) <- requester;
  t.ch_dur.(i) <- dur;
  t.ch_cycles.(i) <- cycles;
  t.ch_victims.(i) <- victims;
  t.ch_exact.(i) <- (if exact then 1 else 0);
  t.n_choose <- i + 1

(* --- Summary ------------------------------------------------------- *)

let pct a p = if Array.length a = 0 then 0.0 else Prb_util.Stats.percentile a p
let ratio a b = if b = 0.0 then 0.0 else a /. b
let s_of_ns n = float_of_int n *. 1e-9

let self_ns t i = t.st_dur.(i) - t.st_child.(i)

(* Per-layer metrics derived from the spans alone: step classes, the
   resolver replay, and the time no span covers. [rollback.apply_s] is
   what a resolve step spends outside the detection calls and victim
   choice, which is the rollbacks it applies and the requeues and
   grants they trigger. *)
let summary t =
  let by_class = Array.make n_classes [] in
  let self_total = Array.make n_classes 0 in
  for i = t.n_steps - 1 downto 0 do
    let c = t.st_class.(i) and s = self_ns t i in
    by_class.(c) <- float_of_int s :: by_class.(c);
    self_total.(c) <- self_total.(c) + s
  done;
  let steps =
    List.concat
      (List.init n_classes (fun c ->
           let d = Array.of_list by_class.(c) in
           let k = "step." ^ class_names.(c) ^ "." in
           [
             (k ^ "count", "count", float_of_int (Array.length d));
             (k ^ "self_s", "s", s_of_ns self_total.(c));
             (k ^ "p50_us", "us", pct d 50.0 *. 1e-3);
             (k ^ "p99_us", "us", pct d 99.0 *. 1e-3);
           ]))
  in
  let choose = Array.init t.n_choose (fun i -> float_of_int t.ch_dur.(i)) in
  let choose_ns = Array.fold_left ( +. ) 0.0 choose in
  let cycles = Array.init t.n_choose (fun i -> float_of_int t.ch_cycles.(i)) in
  let rounds = float_of_int t.n_choose in
  let sum a = Array.fold_left ( + ) 0 (Array.sub a 0 t.n_choose) in
  let spanned = ref 0 in
  for i = 0 to t.n_steps - 1 do
    spanned := !spanned + t.st_dur.(i)
  done;
  steps
  @ [
      ("scheduler.steps", "count", float_of_int t.n_steps);
      ( "scheduler.unattributed_frac",
        "ratio",
        ratio (float_of_int (t.engine_ns - !spanned)) (float_of_int t.engine_ns) );
      ("history.retained_intervals", "count", float_of_int t.retained_peak);
      ("wfg.cycles_per_round_p50", "cycles", pct cycles 50.0);
      ("wfg.cycles_per_round_p99", "cycles", pct cycles 99.0);
      ("resolver.choose_s", "s", choose_ns *. 1e-9);
      ("resolver.choose_p50_us", "us", pct choose 50.0 *. 1e-3);
      ("resolver.choose_p99_us", "us", pct choose 99.0 *. 1e-3);
      ("resolver.exact_frac", "ratio", ratio (float_of_int (sum t.ch_exact)) rounds);
      ( "resolver.victims_per_round",
        "txns/round",
        ratio (float_of_int (sum t.ch_victims)) rounds );
      ("resolver.replay_mismatches", "count", float_of_int t.mismatches);
      ( "rollback.apply_s",
        "s",
        if t.n_choose = 0 then 0.0
        else
          s_of_ns self_total.(resolve) -. t.resolve_detect_s -. (choose_ns *. 1e-9) );
    ]

(* Tab-separated span dump, one line per span, parents before children:
   [step id class start_ns dur_ns self_ns] and
   [choose parent_step requester dur_ns cycles victims exact]. *)
let write t path =
  let oc = open_out path in
  for i = 0 to t.n_steps - 1 do
    Printf.fprintf oc "step\t%d\t%s\t%d\t%d\t%d\n" i
      class_names.(t.st_class.(i)) t.st_start.(i) t.st_dur.(i) (self_ns t i)
  done;
  for i = 0 to t.n_choose - 1 do
    Printf.fprintf oc "choose\t%d\t%d\t%d\t%d\t%d\t%d\n" t.ch_parent.(i)
      t.ch_requester.(i) t.ch_dur.(i) t.ch_cycles.(i) t.ch_victims.(i)
      t.ch_exact.(i)
  done;
  close_out oc
