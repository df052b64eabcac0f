(** Builtin functions and methods available to MiniJS programs.

    Three namespaces:
    - static builtins resolved at compile time: [Math.floor(x)],
      [String.fromCharCode(c)], and the [Math.PI]/[Math.E] constants;
    - receiver methods dispatched on the runtime type of the receiver:
      [s.charCodeAt(i)], [a.push(v)], ...;
    - global functions: [print], [parseInt], [parseFloat], [isNaN].

    Every intrinsic carries a cost in simulated machine instructions
    ([cost]), charged when the VM executes it — these are "C runtime code"
    in the paper's instruction accounting (category NoFTL). *)

type t =
  (* Math.* *)
  | Math_floor
  | Math_ceil
  | Math_round
  | Math_sqrt
  | Math_abs
  | Math_sin
  | Math_cos
  | Math_tan
  | Math_asin
  | Math_acos
  | Math_atan
  | Math_atan2
  | Math_pow
  | Math_log
  | Math_exp
  | Math_min
  | Math_max
  | Math_random
  (* String methods / statics *)
  | Str_char_code_at
  | Str_char_at
  | Str_substring
  | Str_index_of
  | Str_to_lower
  | Str_to_upper
  | Str_split
  | Str_from_char_code
  (* Array methods *)
  | Arr_push
  | Arr_pop
  | Arr_join
  (* Globals *)
  | Global_print
  | Global_parse_int
  | Global_parse_float
  | Global_is_nan
  (* Shared segment (SharedArrayBuffer-style; lib/shared).  Plain accessors
     plus the wait-free Atomics subset.  All dispatch through the heap's
     [shared] closure installed by the agent runtime. *)
  | Shared_read
  | Shared_write
  | Shared_size
  | Atomics_load
  | Atomics_store
  | Atomics_add
  | Atomics_sub
  | Atomics_exchange
  | Atomics_compare_exchange
  | Atomics_fence

exception Type_error of string

let name = function
  | Math_floor -> "Math.floor"
  | Math_ceil -> "Math.ceil"
  | Math_round -> "Math.round"
  | Math_sqrt -> "Math.sqrt"
  | Math_abs -> "Math.abs"
  | Math_sin -> "Math.sin"
  | Math_cos -> "Math.cos"
  | Math_tan -> "Math.tan"
  | Math_asin -> "Math.asin"
  | Math_acos -> "Math.acos"
  | Math_atan -> "Math.atan"
  | Math_atan2 -> "Math.atan2"
  | Math_pow -> "Math.pow"
  | Math_log -> "Math.log"
  | Math_exp -> "Math.exp"
  | Math_min -> "Math.min"
  | Math_max -> "Math.max"
  | Math_random -> "Math.random"
  | Str_char_code_at -> "charCodeAt"
  | Str_char_at -> "charAt"
  | Str_substring -> "substring"
  | Str_index_of -> "indexOf"
  | Str_to_lower -> "toLowerCase"
  | Str_to_upper -> "toUpperCase"
  | Str_split -> "split"
  | Str_from_char_code -> "String.fromCharCode"
  | Arr_push -> "push"
  | Arr_pop -> "pop"
  | Arr_join -> "join"
  | Global_print -> "print"
  | Global_parse_int -> "parseInt"
  | Global_parse_float -> "parseFloat"
  | Global_is_nan -> "isNaN"
  | Shared_read -> "Shared.read"
  | Shared_write -> "Shared.write"
  | Shared_size -> "Shared.size"
  | Atomics_load -> "Atomics.load"
  | Atomics_store -> "Atomics.store"
  | Atomics_add -> "Atomics.add"
  | Atomics_sub -> "Atomics.sub"
  | Atomics_exchange -> "Atomics.exchange"
  | Atomics_compare_exchange -> "Atomics.compareExchange"
  | Atomics_fence -> "Atomics.fence"

(** Shared-segment intrinsics touch memory visible to other agents: the
    optimizer must treat them as clobbering everything (no CSE/LICM), and
    the scheduler treats them as yield points. *)
let is_shared = function
  | Shared_read | Shared_write | Shared_size | Atomics_load | Atomics_store
  | Atomics_add | Atomics_sub | Atomics_exchange | Atomics_compare_exchange
  | Atomics_fence ->
    true
  | _ -> false

(** Simulated instruction cost of calling the intrinsic (call overhead plus a
    rough body cost; string ops also charge per character at eval time). *)
let cost = function
  | Math_floor | Math_ceil | Math_round | Math_abs | Math_min | Math_max -> 8
  | Math_sqrt -> 15
  | Math_sin | Math_cos | Math_tan | Math_asin | Math_acos | Math_atan | Math_atan2 -> 40
  | Math_pow | Math_log | Math_exp -> 40
  | Math_random -> 12
  | Str_char_code_at | Str_char_at -> 10
  | Str_substring | Str_index_of | Str_to_lower | Str_to_upper | Str_split -> 20
  | Str_from_char_code -> 12
  | Arr_push | Arr_pop -> 12
  | Arr_join -> 20
  | Global_print -> 50
  | Global_parse_int | Global_parse_float -> 25
  | Global_is_nan -> 6
  (* Plain shared accesses cost a bounds-checked load/store; atomics add the
     lock-prefix / LL-SC latency; a full SC fence drains the store buffer. *)
  | Shared_read | Shared_write | Shared_size -> 10
  | Atomics_load | Atomics_store -> 18
  | Atomics_add | Atomics_sub | Atomics_exchange | Atomics_compare_exchange -> 30
  | Atomics_fence -> 24

let static_lookup base meth =
  match (base, meth) with
  | "Math", "floor" -> Some Math_floor
  | "Math", "ceil" -> Some Math_ceil
  | "Math", "round" -> Some Math_round
  | "Math", "sqrt" -> Some Math_sqrt
  | "Math", "abs" -> Some Math_abs
  | "Math", "sin" -> Some Math_sin
  | "Math", "cos" -> Some Math_cos
  | "Math", "tan" -> Some Math_tan
  | "Math", "asin" -> Some Math_asin
  | "Math", "acos" -> Some Math_acos
  | "Math", "atan" -> Some Math_atan
  | "Math", "atan2" -> Some Math_atan2
  | "Math", "pow" -> Some Math_pow
  | "Math", "log" -> Some Math_log
  | "Math", "exp" -> Some Math_exp
  | "Math", "min" -> Some Math_min
  | "Math", "max" -> Some Math_max
  | "Math", "random" -> Some Math_random
  | "String", "fromCharCode" -> Some Str_from_char_code
  | "Shared", "read" -> Some Shared_read
  | "Shared", "write" -> Some Shared_write
  | "Shared", "size" -> Some Shared_size
  | "Atomics", "load" -> Some Atomics_load
  | "Atomics", "store" -> Some Atomics_store
  | "Atomics", "add" -> Some Atomics_add
  | "Atomics", "sub" -> Some Atomics_sub
  | "Atomics", "exchange" -> Some Atomics_exchange
  | "Atomics", "compareExchange" -> Some Atomics_compare_exchange
  | "Atomics", "fence" -> Some Atomics_fence
  | _ -> None

let static_constant base prop =
  match (base, prop) with
  | "Math", "PI" -> Some (Value.Num (4.0 *. atan 1.0))
  | "Math", "E" -> Some (Value.Num (exp 1.0))
  | _ -> None

(** Method table for string receivers (pure in the name: resolvable once per
    call site at decode time). *)
let str_method_lookup = function
  | "charCodeAt" -> Some Str_char_code_at
  | "charAt" -> Some Str_char_at
  | "substring" -> Some Str_substring
  | "indexOf" -> Some Str_index_of
  | "toLowerCase" -> Some Str_to_lower
  | "toUpperCase" -> Some Str_to_upper
  | "split" -> Some Str_split
  | _ -> None

(** Method table for array receivers (pure in the name). *)
let arr_method_lookup = function
  | "push" -> Some Arr_push
  | "pop" -> Some Arr_pop
  | "join" -> Some Arr_join
  | _ -> None

(** Methods dispatched on receiver type at run time. *)
let method_lookup (recv : Value.t) meth =
  match recv with
  | Value.Str _ -> str_method_lookup meth
  | Value.Arr _ -> arr_method_lookup meth
  | _ -> None

let global_lookup = function
  | "print" -> Some Global_print
  | "parseInt" -> Some Global_parse_int
  | "parseFloat" -> Some Global_parse_float
  | "isNaN" -> Some Global_is_nan
  | _ -> None

let arg n args = match List.nth_opt args n with Some v -> v | None -> Value.Undef

let num n args = Value.to_number (arg n args)

let math1 f args = Value.number (f (num 0 args))

(* [Stdlib.min]/[max]'s own bodies at type float: the same NaN ordering
   (a NaN wins only as the second argument), compiled inline instead of a
   polymorphic-compare C call.  Not [Float.min]/[Float.max], whose NaN
   ordering differs. *)
let[@inline] fmin (a : float) b = if a <= b then a else b
let[@inline] fmax (a : float) b = if a >= b then a else b

let expect_string fn = function
  | Value.Str s -> s.Value.sdata
  | v -> raise (Type_error (Printf.sprintf "%s: expected string, got %s" fn (Value.type_name v)))

let expect_array fn = function
  | Value.Arr a -> a
  | v -> raise (Type_error (Printf.sprintf "%s: expected array, got %s" fn (Value.type_name v)))

(** Per-character extra instruction charge for string-heavy intrinsics;
    [argc] is the argument count (the only thing the charge needs from the
    argument list, so callers with unboxed arguments avoid building one). *)
let dynamic_cost_argc intr (recv : Value.t) ~argc =
  match intr with
  | Str_substring | Str_to_lower | Str_to_upper | Str_index_of | Str_split -> (
    match recv with Value.Str s -> String.length s.Value.sdata | _ -> 0)
  | Arr_join -> (
    match recv with Value.Arr a -> 8 * a.Value.alen | _ -> 0)
  | Str_from_char_code | Global_print -> argc
  | _ -> 0

(** Per-character extra instruction charge for string-heavy intrinsics. *)
let dynamic_cost intr (recv : Value.t) (args : Value.t list) =
  dynamic_cost_argc intr recv ~argc:(List.length args)

let eval heap intr (recv : Value.t) (args : Value.t list) : Value.t =
  match intr with
  | Math_floor -> math1 Float.floor args
  | Math_ceil -> math1 Float.ceil args
  | Math_round -> math1 (fun f -> Float.floor (f +. 0.5)) args
  | Math_sqrt -> math1 Float.sqrt args
  | Math_abs -> math1 Float.abs args
  | Math_sin -> math1 sin args
  | Math_cos -> math1 cos args
  | Math_tan -> math1 tan args
  | Math_asin -> math1 asin args
  | Math_acos -> math1 acos args
  | Math_atan -> math1 atan args
  | Math_atan2 -> Value.number (atan2 (num 0 args) (num 1 args))
  | Math_pow -> Value.number (Float.pow (num 0 args) (num 1 args))
  | Math_log -> math1 log args
  | Math_exp -> math1 exp args
  | Math_min ->
    let xs = List.map Value.to_number args in
    Value.number (List.fold_left fmin Float.infinity xs)
  | Math_max ->
    let xs = List.map Value.to_number args in
    Value.number (List.fold_left fmax Float.neg_infinity xs)
  | Math_random -> Value.Num (Heap.math_random heap)
  | Str_char_code_at ->
    let s = expect_string "charCodeAt" recv in
    let i = Value.to_int32 (arg 0 args) in
    if i >= 0 && i < String.length s then Value.int_ (Char.code s.[i]) else Value.Num Float.nan
  | Str_char_at ->
    let s = expect_string "charAt" recv in
    let i = Value.to_int32 (arg 0 args) in
    if i >= 0 && i < String.length s then Heap.str heap (String.make 1 s.[i])
    else Heap.str heap ""
  | Str_substring ->
    let s = expect_string "substring" recv in
    let n = String.length s in
    let clamp i = Int.max 0 (Int.min n i) in
    let a = clamp (Value.to_int32 (arg 0 args)) in
    let b =
      match args with [ _ ] -> n | _ -> clamp (Value.to_int32 (arg 1 args))
    in
    let lo = Int.min a b and hi = Int.max a b in
    Heap.str heap (String.sub s lo (hi - lo))
  | Str_index_of ->
    let s = expect_string "indexOf" recv in
    let needle = Value.to_js_string (arg 0 args) in
    let nl = String.length needle and sl = String.length s in
    let rec find i =
      if i + nl > sl then -1
      else if String.sub s i nl = needle then i
      else find (i + 1)
    in
    Value.int_ (find 0)
  | Str_to_lower -> Heap.str heap (String.lowercase_ascii (expect_string "toLowerCase" recv))
  | Str_to_upper -> Heap.str heap (String.uppercase_ascii (expect_string "toUpperCase" recv))
  | Str_split ->
    let s = expect_string "split" recv in
    let sep = Value.to_js_string (arg 0 args) in
    let parts =
      if sep = "" then List.init (String.length s) (fun i -> String.make 1 s.[i])
      else begin
        (* Split on the literal separator, JS-style (keeps empty fields). *)
        let rec go start acc =
          match
            (let nl = String.length sep and sl = String.length s in
             let rec find i =
               if i + nl > sl then None
               else if String.sub s i nl = sep then Some i
               else find (i + 1)
             in
             find start)
          with
          | Some i -> go (i + String.length sep) (String.sub s start (i - start) :: acc)
          | None -> List.rev (String.sub s start (String.length s - start) :: acc)
        in
        go 0 []
      end
    in
    let a = Heap.alloc_array heap 0 in
    List.iteri (fun i part -> Heap.set_elem heap a i (Heap.str heap part)) parts;
    Value.Arr a
  | Str_from_char_code ->
    let chars =
      List.map (fun v -> Char.chr (Value.to_int32 v land 0xFF)) args
    in
    Heap.str heap (String.init (List.length chars) (List.nth chars))
  | Arr_push ->
    let a = expect_array "push" recv in
    let rec push_all = function
      | [] -> Value.int_ a.Value.alen
      | v :: rest ->
        ignore (Heap.array_push heap a v);
        push_all rest
    in
    push_all args
  | Arr_pop -> Heap.array_pop heap (expect_array "pop" recv)
  | Arr_join ->
    let a = expect_array "join" recv in
    let sep = match args with [] -> "," | v :: _ -> Value.to_js_string v in
    let parts =
      List.init a.Value.alen (fun i ->
          match Heap.get_elem heap a i with
          | Value.Undef | Value.Null -> ""
          | v -> Value.to_js_string v)
    in
    Heap.str heap (String.concat sep parts)
  | Global_print ->
    (* I/O is irrevocable inside a hardware transaction: the guard aborts
       before anything escapes, and Baseline re-runs the region (printing
       exactly once). *)
    if heap.Heap.hooks.active then heap.Heap.hooks.io ();
    print_endline (String.concat " " (List.map Value.to_js_string args));
    Value.Undef
  | Global_parse_int ->
    let s = String.trim (Value.to_js_string (arg 0 args)) in
    let radix = match args with [ _; r ] -> Value.to_int32 r | _ -> 10 in
    let digit c =
      if c >= '0' && c <= '9' then Char.code c - Char.code '0'
      else if c >= 'a' && c <= 'z' then Char.code c - Char.code 'a' + 10
      else if c >= 'A' && c <= 'Z' then Char.code c - Char.code 'A' + 10
      else 99
    in
    let sign, start =
      if s <> "" && s.[0] = '-' then (-1.0, 1)
      else if s <> "" && s.[0] = '+' then (1.0, 1)
      else (1.0, 0)
    in
    let radix, start =
      if radix = 16 && String.length s >= start + 2 && s.[start] = '0'
         && (s.[start + 1] = 'x' || s.[start + 1] = 'X')
      then (16, start + 2)
      else (radix, start)
    in
    let rec go i acc saw =
      if i < String.length s && digit s.[i] < radix then
        go (i + 1) ((acc *. float_of_int radix) +. float_of_int (digit s.[i])) true
      else if saw then Value.number (sign *. acc)
      else Value.Num Float.nan
    in
    go start 0.0 false
  | Global_parse_float ->
    let s = String.trim (Value.to_js_string (arg 0 args)) in
    (match float_of_string_opt s with
    | Some f -> Value.number f
    | None -> Value.Num Float.nan)
  | Global_is_nan -> Value.bool_ (Float.is_nan (Value.to_number (arg 0 args)))
  | Shared_read | Shared_write | Shared_size | Atomics_load | Atomics_store
  | Atomics_add | Atomics_sub | Atomics_exchange | Atomics_compare_exchange
  | Atomics_fence -> (
    let op =
      match intr with
      | Shared_read -> Heap.Sh_read
      | Shared_write -> Heap.Sh_write
      | Shared_size -> Heap.Sh_size
      | Atomics_load -> Heap.Sh_load
      | Atomics_store -> Heap.Sh_store
      | Atomics_add -> Heap.Sh_add
      | Atomics_sub -> Heap.Sh_sub
      | Atomics_exchange -> Heap.Sh_exchange
      | Atomics_compare_exchange -> Heap.Sh_cas
      | _ -> Heap.Sh_fence
    in
    match heap.Heap.shared with
    | Some dispatch -> dispatch op args
    | None -> raise (Type_error (name intr ^ ": no shared segment attached")))

(* ------------------------------------------------------------------ *)
(* Arity fast paths.

   The optimizing tiers know the call-site arity, so the common 0/1/2-arg
   intrinsic calls can skip building the argument list.  Each case below
   replicates [eval]'s behavior for that arity exactly (including the
   [fmin]/[fmax] folds, whose NaN ordering differs from [Float.min]);
   anything not covered falls back to [eval] with a freshly
   built list. *)

let eval0 heap intr (recv : Value.t) : Value.t =
  match intr with
  | Math_random -> Value.Num (Heap.math_random heap)
  | Arr_pop -> Heap.array_pop heap (expect_array "pop" recv)
  | _ -> eval heap intr recv []

let eval1 heap intr (recv : Value.t) (a0 : Value.t) : Value.t =
  match intr with
  | Math_floor -> Value.number (Float.floor (Value.to_number a0))
  | Math_ceil -> Value.number (Float.ceil (Value.to_number a0))
  | Math_round -> Value.number (Float.floor (Value.to_number a0 +. 0.5))
  | Math_sqrt -> Value.number (Float.sqrt (Value.to_number a0))
  | Math_abs -> Value.number (Float.abs (Value.to_number a0))
  | Math_sin -> Value.number (sin (Value.to_number a0))
  | Math_cos -> Value.number (cos (Value.to_number a0))
  | Math_tan -> Value.number (tan (Value.to_number a0))
  | Math_asin -> Value.number (asin (Value.to_number a0))
  | Math_acos -> Value.number (acos (Value.to_number a0))
  | Math_atan -> Value.number (atan (Value.to_number a0))
  | Math_log -> Value.number (log (Value.to_number a0))
  | Math_exp -> Value.number (exp (Value.to_number a0))
  | Math_min -> Value.number (fmin Float.infinity (Value.to_number a0))
  | Math_max -> Value.number (fmax Float.neg_infinity (Value.to_number a0))
  | Str_char_code_at ->
    let s = expect_string "charCodeAt" recv in
    let i = Value.to_int32 a0 in
    if i >= 0 && i < String.length s then Value.int_ (Char.code s.[i]) else Value.Num Float.nan
  | Str_char_at ->
    let s = expect_string "charAt" recv in
    let i = Value.to_int32 a0 in
    if i >= 0 && i < String.length s then Heap.str heap (String.make 1 s.[i])
    else Heap.str heap ""
  | Arr_push ->
    let a = expect_array "push" recv in
    ignore (Heap.array_push heap a a0);
    Value.int_ a.Value.alen
  | Global_is_nan -> Value.bool_ (Float.is_nan (Value.to_number a0))
  | _ -> eval heap intr recv [ a0 ]

let eval2 heap intr (recv : Value.t) (a0 : Value.t) (a1 : Value.t) : Value.t =
  match intr with
  | Math_atan2 -> Value.number (atan2 (Value.to_number a0) (Value.to_number a1))
  | Math_pow -> Value.number (Float.pow (Value.to_number a0) (Value.to_number a1))
  | Math_min ->
    Value.number (fmin (fmin Float.infinity (Value.to_number a0)) (Value.to_number a1))
  | Math_max ->
    Value.number (fmax (fmax Float.neg_infinity (Value.to_number a0)) (Value.to_number a1))
  | _ -> eval heap intr recv [ a0; a1 ]
