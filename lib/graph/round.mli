(** A resolution round: the cycles one deadlock resolution must break,
    in the flat form every victim policy and the cut solver read
    (paper Section 3.2).

    Members are the vertices the cycles may pass through, ranked by
    ascending vertex id, so a member's local index orders the same way as
    its id — the cut solver's tie-break order. Each cycle is kept twice:
    as its member sequence in cycle order, every position paired with the
    label slot of the arc into that member, and as a member bitset of
    {!field-words} 63-bit words. Each member's {e needs} is the set of
    label slots on its inbound arcs over all cycles: the entities it must
    release to break them. The waits-for enumerator fills a round
    directly, with one label slot per member (its wait entity), so a
    member's needs are its predecessors; {!of_cycles} builds the same
    form from the labelled lists the resolver's list API takes.

    A round is reused: {!reset} rewinds it without allocating once its
    buffers have grown to the working size. Read the fields directly;
    write them only through the functions below. *)

type t = {
  mutable n : int;  (** members *)
  mutable words : int;  (** words per member bitset *)
  mutable ids : int array;  (** member index -> vertex id, ascending *)
  mutable n_labels : int;
  mutable lwords : int;  (** words per label-slot bitset *)
  mutable labels : string array;  (** label slot -> arc label (entity) *)
  mutable needs : int array;
      (** [needs.(i * lwords + w)]: label slots of the arcs into member [i] *)
  mutable ncyc : int;
  mutable npos : int;  (** positions over all cycles *)
  mutable start : int array;
      (** cycle [c] holds positions [start.(c)] to [start.(c + 1) - 1] *)
  mutable seq : int array;  (** position -> member, in cycle order *)
  mutable arc : int array;  (** position -> label slot of its inbound arc *)
  mutable masks : int array;
      (** [masks.(c * words + w)]: members of cycle [c] *)
  mutable complete : bool;
      (** false when a cycle limit or an edge budget stopped enumeration
          before every cycle was found *)
  mutable hit : int array;
      (** [hit.(c * words + w)]: the members a cut may take from cycle
          [c]; filled by the caller of {!Cutset.solve} *)
  mutable cut : int array;  (** the cut solver's answer, a member bitset *)
  mutable nodes : int;
      (** branch-and-bound nodes over every solve on this round: a
          deterministic measure of the search *)
  mutable solved : int;  (** cycles handed to the solver, over every solve *)
  mutable costs : float array;  (** solver scratch: cost per member *)
  mutable cand : int array;  (** solver scratch: members in some [hit] set *)
  mutable vmask : int array;  (** solver scratch: cycles per member *)
  mutable covered : int array;  (** solver scratch: cycles hit *)
  mutable full : int array;  (** solver scratch: every cycle *)
  mutable hit_count : int array;  (** solver scratch: members per cycle *)
  mutable chosen : int array;  (** solver scratch: the branch's members *)
}

val create : unit -> t

val reset : t -> members:int -> labels:int -> unit
(** Rewind to no cycles over [members] members and [labels] label slots,
    with empty needs and [complete] set. Member ids and labels are then
    set with {!set_member} and {!set_label}. *)

val set_member : t -> int -> int -> unit
(** [set_member r i id]: member [i] is vertex [id]; ids must ascend. *)

val set_label : t -> int -> string -> unit

val set_complete : t -> bool -> unit

val add_arc : t -> member:int -> label:int -> unit
(** Append a position to the open cycle: [member], entered by an arc
    labelled with slot [label]. *)

val close_cycle : t -> unit
(** End the open cycle; the next {!add_arc} opens a new one. *)

val mem : int array -> int -> int -> bool
(** [mem masks off i]: is bit [i] set in the bitset at [masks.(off)]? *)

val member_index : t -> int -> int
(** The member index of a vertex id, or [-1]. *)

val all_arcs : t -> int -> (string -> bool) -> bool
(** [all_arcs r c ok]: does every arc label of cycle [c] satisfy [ok]?
    Labels are tested in cycle order, up to the first failure. *)

val same_arcs : t -> int -> (string -> int) -> bool
(** [same_arcs r c key]: do all arc labels of cycle [c] share the key of
    the first? (An empty cycle does.) *)

val needed_labels : t -> int -> string list
(** The labels of a member's needs, once per slot, in no set order. *)

val filter : t -> (int -> bool) -> unit
(** Keep the cycles a predicate accepts, in order, and recompute the
    needs from them. The predicate gets a cycle index of the round as it
    was before the call, and may read that cycle's positions. *)

val of_cycles : (int * string) list list -> t
(** A round over labelled cycles: each cycle's members in cycle order,
    each paired with the label of its inbound arc. *)

val cycle : t -> int -> (int * string) list
(** Cycle [c] as a labelled list. *)

val to_cycles : t -> (int * string) list list
(** The labelled list view; [to_cycles (of_cycles cs) = cs]. *)

val restrict : t -> keep:int array -> fallback:int array -> last:int -> unit
(** Fill {!field-hit}: each cycle offers the cut its members in [keep]
    (a member bitset), or when it has none, its members in [fallback],
    or when it has none of those either, member [last] alone (none when
    [last] is negative). *)

val words_for : int -> int
(** Words of a bitset over that many elements (at least one). *)

val size_solver : t -> cwords:int -> unit
(** Grow the solver scratch to the round's members and cycles, with
    cycle bitsets of [cwords] words. *)
