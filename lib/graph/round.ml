type t = {
  mutable n : int;
  mutable words : int;
  mutable ids : int array;
  mutable n_labels : int;
  mutable lwords : int;
  mutable labels : string array;
  mutable needs : int array;
  mutable ncyc : int;
  mutable npos : int;
  mutable start : int array;
  mutable seq : int array;
  mutable arc : int array;
  mutable masks : int array;
  mutable complete : bool;
  mutable hit : int array;
  mutable cut : int array;
  mutable nodes : int;
  mutable solved : int;
  mutable costs : float array;
  mutable cand : int array;
  mutable vmask : int array;
  mutable covered : int array;
  mutable full : int array;
  mutable hit_count : int array;
  mutable chosen : int array;
}

let create () =
  {
    n = 0;
    words = 1;
    ids = [||];
    n_labels = 0;
    lwords = 1;
    labels = [||];
    needs = [||];
    ncyc = 0;
    npos = 0;
    start = Array.make 1 0;
    seq = [||];
    arc = [||];
    masks = Array.make 1 0;
    complete = true;
    hit = [||];
    cut = [||];
    nodes = 0;
    solved = 0;
    costs = [||];
    cand = [||];
    vmask = [||];
    covered = [||];
    full = [||];
    hit_count = [||];
    chosen = [||];
  }

(* Bitsets are arrays of 63-bit words: bit [i] of a set at [off] lives in
   word [off + i / 63]. *)
let words_for n = max 1 ((n + 62) / 63)

let mem (masks : int array) off i =
  masks.(off + (i / 63)) land (1 lsl (i mod 63)) <> 0

let set_bit (masks : int array) off i =
  let w = off + (i / 63) in
  masks.(w) <- masks.(w) lor (1 lsl (i mod 63))

(* [a], or a geometrically widened copy when it holds fewer than [need]
   slots. *)
let room a need fill =
  if need <= Array.length a then a
  else Prb_util.Dense.grow (max 16 (max need (2 * Array.length a))) fill a

let grown (a : int array) need = room a need 0

let reset r ~members ~labels =
  r.n <- members;
  r.words <- words_for members;
  r.ids <- grown r.ids members;
  r.n_labels <- labels;
  r.lwords <- words_for labels;
  r.labels <- room r.labels labels "";
  let nn = members * r.lwords in
  r.needs <- grown r.needs nn;
  Array.fill r.needs 0 nn 0;
  r.ncyc <- 0;
  r.npos <- 0;
  r.start.(0) <- 0;
  r.masks <- grown r.masks r.words;
  Array.fill r.masks 0 r.words 0;
  r.complete <- true

let set_member r i id = r.ids.(i) <- id
let set_complete r b = r.complete <- b
let set_label r i l = r.labels.(i) <- l

let add_arc r ~member ~label =
  let p = r.npos in
  if p >= Array.length r.seq then begin
    r.seq <- grown r.seq (p + 1);
    r.arc <- grown r.arc (p + 1)
  end;
  r.seq.(p) <- member;
  r.arc.(p) <- label;
  r.npos <- p + 1;
  set_bit r.masks (r.ncyc * r.words) member;
  set_bit r.needs (member * r.lwords) label

let close_cycle r =
  let c = r.ncyc + 1 in
  r.ncyc <- c;
  r.start <- grown r.start (c + 1);
  r.start.(c) <- r.npos;
  r.masks <- grown r.masks ((c + 1) * r.words);
  Array.fill r.masks (c * r.words) r.words 0

let rec member_index_ (ids : int array) (v : int) lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if ids.(mid) < v then member_index_ ids v (mid + 1) hi
    else member_index_ ids v lo mid

let member_index r v =
  let p = member_index_ r.ids v 0 r.n in
  if p < r.n && r.ids.(p) = v then p else -1

let arc_label r p = r.labels.(r.arc.(p))

let all_arcs r c ok =
  let e = r.start.(c + 1) in
  let rec go p = p >= e || (ok (arc_label r p) && go (p + 1)) in
  go r.start.(c)

let same_arcs r c (key : string -> int) =
  r.start.(c) >= r.start.(c + 1)
  ||
  let k = key (arc_label r r.start.(c)) in
  all_arcs r c (fun l -> key l = k)

let needed_labels r i =
  let off = i * r.lwords in
  let acc = ref [] in
  for l = r.n_labels - 1 downto 0 do
    if mem r.needs off l then acc := r.labels.(l) :: !acc
  done;
  !acc

let recompute_needs r =
  Array.fill r.needs 0 (r.n * r.lwords) 0;
  for p = 0 to r.npos - 1 do
    set_bit r.needs (r.seq.(p) * r.lwords) r.arc.(p)
  done

(* Compaction in place: a kept cycle moves to a lower or equal index and
   position, so the cycle the predicate reads next is still intact. *)
let filter r keep =
  let kept = ref 0 and pos = ref 0 and s = ref 0 in
  for c = 0 to r.ncyc - 1 do
    let e = r.start.(c + 1) in
    if keep c then begin
      let len = e - !s in
      Array.blit r.seq !s r.seq !pos len;
      Array.blit r.arc !s r.arc !pos len;
      Array.blit r.masks (c * r.words) r.masks (!kept * r.words) r.words;
      pos := !pos + len;
      incr kept;
      r.start.(!kept) <- !pos
    end;
    s := e
  done;
  if !kept < r.ncyc then begin
    r.ncyc <- !kept;
    r.npos <- !pos;
    Array.fill r.masks (!kept * r.words) r.words 0;
    recompute_needs r
  end

let rec index_of_label (a : string array) (l : string) lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if String.compare a.(mid) l < 0 then index_of_label a l (mid + 1) hi
    else index_of_label a l lo mid

let of_cycles cycles =
  let ids =
    Array.of_list
      (List.sort_uniq Int.compare
         (List.concat_map (List.map fst) cycles))
  in
  let labels =
    Array.of_list
      (List.sort_uniq String.compare
         (List.concat_map (List.map snd) cycles))
  in
  let r = create () in
  reset r ~members:(Array.length ids) ~labels:(Array.length labels);
  Array.iteri (set_member r) ids;
  Array.iteri (set_label r) labels;
  List.iter
    (fun cycle ->
      List.iter
        (fun (m, l) ->
          add_arc r ~member:(member_index r m)
            ~label:(index_of_label labels l 0 (Array.length labels)))
        cycle;
      close_cycle r)
    cycles;
  r

let cycle r c =
  List.init
    (r.start.(c + 1) - r.start.(c))
    (fun j ->
      let p = r.start.(c) + j in
      (r.ids.(r.seq.(p)), arc_label r p))

let to_cycles r = List.init r.ncyc (cycle r)

let rec any_in (masks : int array) off (set : int array) w words =
  w < words
  && (masks.(off + w) land set.(w) <> 0 || any_in masks off set (w + 1) words)

let restrict r ~keep ~fallback ~last =
  let w = r.words in
  r.hit <- grown r.hit (r.ncyc * w);
  for c = 0 to r.ncyc - 1 do
    let off = c * w in
    let set =
      if any_in r.masks off keep 0 w then keep
      else if any_in r.masks off fallback 0 w then fallback
      else [||]
    in
    if Array.length set = 0 then begin
      Array.fill r.hit off w 0;
      if last >= 0 then set_bit r.hit off last
    end
    else
      for k = 0 to w - 1 do
        r.hit.(off + k) <- r.masks.(off + k) land set.(k)
      done
  done

let size_solver r ~cwords =
  let w = r.words in
  r.cut <- grown r.cut w;
  r.chosen <- grown r.chosen w;
  r.cand <- grown r.cand w;
  r.vmask <- grown r.vmask (r.n * cwords);
  r.covered <- grown r.covered cwords;
  r.full <- grown r.full cwords;
  r.hit_count <- grown r.hit_count r.ncyc;
  r.costs <- room r.costs r.n 0.0
