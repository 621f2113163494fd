type t = Int of int | Text of string | Bool of bool

let equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Text x, Text y -> String.equal x y
  | Bool x, Bool y -> x = y
  | (Int _ | Text _ | Bool _), _ -> false

let compare a b =
  let rank = function Int _ -> 0 | Text _ -> 1 | Bool _ -> 2 in
  match (a, b) with
  | Int x, Int y -> Stdlib.compare x y
  | Text x, Text y -> String.compare x y
  | Bool x, Bool y -> Stdlib.compare x y
  | _ -> Stdlib.compare (rank a) (rank b)

let pp ppf = function
  | Int n -> Fmt.int ppf n
  | Text s -> Fmt.pf ppf "%S" s
  | Bool b -> Fmt.bool ppf b

let to_string v = Fmt.str "%a" pp v

let int n = Int n
let text s = Text s
let bool b = Bool b

(* FNV-1a over the bytes from [i], on a 64-bit accumulator. A recursion
   rather than [String.iter] over a ref cell: [as_int] is reachable from
   [Txn_state.exec_data_op], whose path must not allocate (lint A1). *)
let rec fnv1a s h i =
  if i >= String.length s then h
  else
    let h = Int64.logxor h (Int64.of_int (Char.code s.[i])) in
    fnv1a s (Int64.mul h 0x100000001b3L) (i + 1)

(* FNV-1a, 64-bit folded into OCaml's int range; deterministic across
   runs unlike [Hashtbl.hash] seeds under randomization. *)
let string_hash s = Int64.to_int (fnv1a s 0xcbf29ce484222325L 0) land max_int

let as_int = function
  | Int n -> n
  | Bool b -> if b then 1 else 0
  | Text s -> string_hash s

(* The one allocation of value arithmetic: its result. *)
let[@lint.allow
     "A1: arithmetic returns a fresh boxed Int, the datum a data op \
      writes; evaluating operands allocates nothing"] boxed n = Int n

let add a b = boxed (as_int a + as_int b)
let sub a b = boxed (as_int a - as_int b)
let mul a b = boxed (as_int a * as_int b)
let neg v = boxed (-as_int v)

let min_v a b =
  let x = as_int a and y = as_int b in
  boxed (if x <= y then x else y)

let max_v a b =
  let x = as_int a and y = as_int b in
  boxed (if x >= y then x else y)

let mix v =
  let z = Int64.of_int (as_int v) in
  let z = Int64.add z 0x9E3779B97F4A7C15L in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  let z = Int64.(logxor z (shift_right_logical z 31)) in
  boxed (Int64.to_int z land max_int)
