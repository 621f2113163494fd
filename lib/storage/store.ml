type entity = string

module Entity = struct
  type t = entity

  let equal = String.equal
  let compare = String.compare
  let hash = Hashtbl.hash
  let pp = Format.pp_print_string
end

type t = {
  table : (entity, Value.t) Hashtbl.t;
  mutable installs : int;
}

let create () = { table = Hashtbl.create 256; installs = 0 }

let define t e v = Hashtbl.replace t.table e v

let of_list bindings =
  let t = create () in
  List.iter (fun (e, v) -> define t e v) bindings;
  t

let mem t e = Hashtbl.mem t.table e

let get t e = Hashtbl.find t.table e

let find_opt t e = Hashtbl.find_opt t.table e

let[@lint.allow
     "A1: installs a final/committed value over an existing key — \
      Hashtbl.replace touches a bucket only on the replace path, once \
      per entity per transaction"] install t e v =
  if not (mem t e) then raise Not_found;
  Hashtbl.replace t.table e v;
  t.installs <- t.installs + 1

let entities t =
  Hashtbl.fold (fun e _ acc -> e :: acc) t.table []
  |> List.sort Entity.compare

let size t = Hashtbl.length t.table

let snapshot t = List.map (fun e -> (e, get t e)) (entities t)

(* Size check then single-pass membership lookup — no sorted snapshots.
   Equal sizes make the one-directional containment an equality. *)
let equal_state a b =
  size a = size b
  && (try
        Hashtbl.iter
          (fun e va ->
            match find_opt b e with
            | Some vb when Value.equal va vb -> ()
            | _ -> raise Exit)
          a.table;
        true
      with Exit -> false)

let install_count t = t.installs

module Constraint = struct
  type store = t
  type t = { name : string; check : store -> bool }

  let make ~name check = { name; check }
  let name t = t.name
  let holds t store = t.check store

  let sum_preserved ~name entities ~expected =
    make ~name (fun store ->
        let sum =
          List.fold_left
            (fun acc e ->
              match find_opt store e with
              | Some v -> acc + Value.as_int v
              | None -> acc)
            0 entities
        in
        sum = expected)

  let all_hold constraints store =
    match List.filter (fun c -> not (holds c store)) constraints with
    | [] -> Ok ()
    | bad -> Error (List.map name bad)
end
