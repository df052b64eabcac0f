(** MiniJS runtime values.

    Numbers follow the JavaScriptCore convention: semantically every number
    is a double, but values that are integral and fit in int32 are kept as
    [Int].  The optimizing tiers speculate on [Int] and guard with overflow
    checks — the paper's dominant check category.

    [Hole] is internal to arrays (an element never written); it is never
    returned to MiniJS code — element reads turn holes into [Undef] after a
    hole check. *)

type t =
  | Int of int  (** invariant: fits in int32 *)
  | Num of float
  | Str of jsstring
  | Bool of bool
  | Undef
  | Null
  | Obj of obj
  | Arr of arr
  | Fun of int  (** index into the program's function table *)
  | Hole

and jsstring = { sid : int; sdata : string; mutable saddr : int }

and obj = {
  oid : int;
  mutable shape : Shape.t;
  mutable slots : t array;
  mutable oaddr : int;  (** simulated address of the object header *)
  mutable slots_addr : int;  (** simulated address of the property storage *)
}

and arr = {
  aid : int;
  mutable elems : t array;  (** physical storage; may exceed [alen] *)
  mutable alen : int;  (** JS [.length] *)
  mutable aaddr : int;
  mutable elems_addr : int;
}

let int32_min = -0x8000_0000
let int32_max = 0x7FFF_FFFF

let[@inline] fits_int32 i = i >= int32_min && i <= int32_max

(* Preallocated [Int] values for the indices, lengths, character codes and
   small arithmetic results that dominate hot loops: reusing the boxed
   constructor avoids a minor-heap allocation per produced integer.  Values
   are immutable, so sharing is unobservable (equality on [Int] is
   structural). *)
let small_int_min = -256
let small_int_max = 4096
let small_ints =
  Array.init (small_int_max - small_int_min + 1) (fun i -> Int (i + small_int_min))

(** [Int i] without allocating when [i] is small.  The caller guarantees
    [i] fits int32 (same contract as writing [Int i] directly). *)
let[@inline] int_ i =
  if i >= small_int_min && i <= small_int_max then
    Array.unsafe_get small_ints (i - small_int_min)
  else Int i

(** Canonical number constructor: integral doubles with magnitude at most
    2^31-1 become [Int] (except -0.0, which must stay a double to preserve
    its sign).  The range test rejects NaN and the infinities, so the
    truncating round trip is defined and tests integrality without
    [Float.is_integer]'s C call. *)
let[@inline] number f =
  if f >= -2147483647.0 && f <= 2147483647.0 then begin
    let i = int_of_float f in
    if float_of_int i = f && (i <> 0 || 1.0 /. f > 0.0) then int_ i else Num f
  end
  else Num f

let of_int i = if fits_int32 i then int_ i else Num (float_of_int i)

(* The two [Bool] blocks, preallocated for the same reason as [small_ints]:
   comparisons produce one per execution on the engines' hot paths. *)
let true_ = Bool true
let false_ = Bool false

(** [Bool b] without allocating. *)
let[@inline] bool_ b = if b then true_ else false_

let type_name = function
  | Int _ | Num _ -> "number"
  | Str _ -> "string"
  | Bool _ -> "boolean"
  | Undef -> "undefined"
  | Null -> "null"
  | Obj _ -> "object"
  | Arr _ -> "array"
  | Fun _ -> "function"
  | Hole -> "hole"

(** JS ToNumber, restricted to the types MiniJS has. *)
let to_number = function
  | Int i -> float_of_int i
  | Num f -> f
  | Bool true -> 1.0
  | Bool false -> 0.0
  | Null -> 0.0
  | Undef -> Float.nan
  | Str s -> (
    let str = String.trim s.sdata in
    if str = "" then 0.0
    else match float_of_string_opt str with Some f -> f | None -> Float.nan)
  | Obj _ | Arr _ | Fun _ | Hole -> Float.nan

(** JS ToInt32 (for bitwise operators). *)
let to_int32 v =
  match v with
  | Int i -> i
  | _ ->
    let f = to_number v in
    if Float.is_nan f || Float.is_integer f = false && Float.abs f = Float.infinity then 0
    else if Float.abs f = Float.infinity then 0
    else begin
      let m = Float.rem (Float.of_int (int_of_float f)) 4294967296.0 in
      let m = if m < 0.0 then m +. 4294967296.0 else m in
      let u = int_of_float m in
      if u >= 0x8000_0000 then u - 0x1_0000_0000 else u
    end

(** JS ToUint32. *)
let to_uint32 v =
  let i = to_int32 v in
  if i < 0 then i + 0x1_0000_0000 else i

let truthy = function
  | Bool b -> b
  | Int i -> i <> 0
  | Num f -> not (f = 0.0 || Float.is_nan f)
  | Str s -> s.sdata <> ""
  | Undef | Null -> false
  | Obj _ | Arr _ | Fun _ -> true
  | Hole -> false

(** Number formatting, approximating JS's shortest-round-trip rule closely
    enough for benchmark checksums. *)
let number_to_string f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "Infinity"
  else if f = Float.neg_infinity then "-Infinity"
  else if Float.is_integer f && Float.abs f < 1e21 then Printf.sprintf "%.0f" f
  else begin
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f
  end

let rec to_js_string v =
  match v with
  | Int i -> string_of_int i
  | Num f -> number_to_string f
  | Str s -> s.sdata
  | Bool b -> if b then "true" else "false"
  | Undef -> "undefined"
  | Null -> "null"
  | Fun _ -> "function"
  | Obj o ->
    (* Not JS's "[object Object]": printing fields makes checksums strict. *)
    let names = Shape.property_names o.shape in
    let fields =
      List.mapi (fun i name -> Printf.sprintf "%s:%s" name (to_js_string o.slots.(i))) names
    in
    "{" ^ String.concat "," fields ^ "}"
  | Arr a ->
    let parts =
      List.init a.alen (fun i ->
          match a.elems.(i) with Hole | Undef -> "" | v -> to_js_string v)
    in
    String.concat "," parts
  | Hole -> ""

(** Strict-ish equality: MiniJS has no coercing [==], so this implements
    strict equality with the usual number unification. *)
let equals a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | (Int _ | Num _), (Int _ | Num _) ->
    let x = to_number a and y = to_number b in
    x = y (* NaN <> NaN holds under OCaml float = *)
  | Str x, Str y -> String.equal x.sdata y.sdata
  | Bool x, Bool y -> x = y
  | Undef, Undef | Null, Null -> true
  | Obj x, Obj y -> x == y
  | Arr x, Arr y -> x == y
  | Fun x, Fun y -> x = y
  | _ -> false
