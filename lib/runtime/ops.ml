(** Generic JavaScript operator semantics — the "runtime call" slow paths
    that the Interpreter and Baseline tiers execute for every operation, and
    that optimized code falls back to after a deoptimization. *)

open Value

(** [a + b]: string concatenation if either side is a string, else numeric. *)
let js_add heap a b =
  match (a, b) with
  | Str _, _ | _, Str _ ->
    Heap.str heap (to_js_string a ^ to_js_string b)
  | Int x, Int y ->
    let r = x + y in
    if fits_int32 r then int_ r else Num (float_of_int x +. float_of_int y)
  | _ -> number (to_number a +. to_number b)

let js_sub a b =
  match (a, b) with
  | Int x, Int y ->
    let r = x - y in
    if fits_int32 r then int_ r else Num (float_of_int x -. float_of_int y)
  | _ -> number (to_number a -. to_number b)

let js_mul a b =
  match (a, b) with
  | Int x, Int y ->
    let r = x * y in
    (* -0 results (e.g. -1 * 0) must stay doubles; conservatively only keep
       nonzero products or products of nonnegative operands as ints. *)
    if fits_int32 r && (r <> 0 || (x >= 0 && y >= 0)) then int_ r
    else Num (float_of_int x *. float_of_int y)
  | _ -> number (to_number a *. to_number b)

let js_div a b = number (to_number a /. to_number b)

let js_mod a b =
  match (a, b) with
  | Int x, Int y when y <> 0 && x >= 0 && y > 0 -> int_ (x mod y)
  | _ -> number (Float.rem (to_number a) (to_number b))

let js_neg a =
  match a with
  | Int x when x <> 0 && fits_int32 (-x) -> int_ (-x)
  | _ -> number (-.to_number a)

(* Relational comparison: strings compare lexicographically, otherwise
   numeric with NaN making every comparison false. *)
let compare_values a b ~if_str ~if_num =
  match (a, b) with
  | Str x, Str y -> if_str (String.compare x.sdata y.sdata)
  | _ ->
    let x = to_number a and y = to_number b in
    if Float.is_nan x || Float.is_nan y then false else if_num x y

(* Int x Int first: the int32 compare equals the double compare it
   stands for, without boxing two floats. *)
let js_lt a b =
  match (a, b) with
  | Int x, Int y -> x < y
  | _ -> compare_values a b ~if_str:(fun c -> c < 0) ~if_num:(fun x y -> x < y)

let js_le a b =
  match (a, b) with
  | Int x, Int y -> x <= y
  | _ -> compare_values a b ~if_str:(fun c -> c <= 0) ~if_num:(fun x y -> x <= y)

let js_gt a b =
  match (a, b) with
  | Int x, Int y -> x > y
  | _ -> compare_values a b ~if_str:(fun c -> c > 0) ~if_num:(fun x y -> x > y)

let js_ge a b =
  match (a, b) with
  | Int x, Int y -> x >= y
  | _ -> compare_values a b ~if_str:(fun c -> c >= 0) ~if_num:(fun x y -> x >= y)

let[@inline] wrap_int32 i =
  let m = i land 0xFFFF_FFFF in
  if m >= 0x8000_0000 then m - 0x1_0000_0000 else m

let js_band a b = int_ (wrap_int32 (to_int32 a land to_int32 b))
let js_bor a b = int_ (wrap_int32 (to_int32 a lor to_int32 b))
let js_bxor a b = int_ (wrap_int32 (to_int32 a lxor to_int32 b))
let js_bitnot a = int_ (wrap_int32 (lnot (to_int32 a)))

let js_shl a b = int_ (wrap_int32 (to_int32 a lsl (to_uint32 b land 31)))
let js_shr a b = int_ (to_int32 a asr (to_uint32 b land 31))

let js_ushr a b =
  let x = to_uint32 a lsr (to_uint32 b land 31) in
  if x > int32_max then Num (float_of_int x) else int_ x

let apply_binop heap (op : Nomap_jsir.Ast.binop) a b =
  match op with
  | Add -> js_add heap a b
  | Sub -> js_sub a b
  | Mul -> js_mul a b
  | Div -> js_div a b
  | Mod -> js_mod a b
  | Lt -> bool_ (js_lt a b)
  | Le -> bool_ (js_le a b)
  | Gt -> bool_ (js_gt a b)
  | Ge -> bool_ (js_ge a b)
  | Eq -> bool_ (equals a b)
  | Ne -> bool_ (not (equals a b))
  | Band -> js_band a b
  | Bor -> js_bor a b
  | Bxor -> js_bxor a b
  | Shl -> js_shl a b
  | Shr -> js_shr a b
  | Ushr -> js_ushr a b

let apply_unop (op : Nomap_jsir.Ast.unop) a =
  match op with
  | Neg -> js_neg a
  | Plus -> number (to_number a)
  | Not -> bool_ (not (truthy a))
  | Bitnot -> js_bitnot a

(** Fast-path character read with a simulated memory access; [-1] when out
    of range (callers bounds-check first on the fast path). *)
let string_char_code (heap : Heap.t) (s : jsstring) i =
  if i >= 0 && i < String.length s.sdata then begin
    Heap.note_load heap (s.saddr + 16 + i) 1;
    Char.code s.sdata.[i]
  end
  else -1

(** [.length] for the three length-bearing types. *)
let js_length v =
  match v with
  | Str s -> Some (int_ (String.length s.sdata))
  | Arr a ->
    Some (int_ a.alen)
  | _ -> None
