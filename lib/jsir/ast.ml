(** Abstract syntax for MiniJS, the JavaScript subset the workloads are
    written in.

    MiniJS keeps the parts of JavaScript that matter for the paper's
    evaluation — dynamically-typed numbers (doubles speculated as int32),
    objects with dynamic properties, elongating arrays with holes, strings —
    and drops what the benchmark kernels do not need (closures, prototypes,
    exceptions, regexps, `with`, getters).  Functions are top-level only and
    may reference globals; `new F(...)` supports constructor-style objects. *)

type pos = { line : int; col : int }

type unop =
  | Neg  (** -x *)
  | Plus  (** +x : ToNumber *)
  | Not  (** !x *)
  | Bitnot  (** ~x *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | Band
  | Bor
  | Bxor
  | Shl
  | Shr  (** >> (arithmetic) *)
  | Ushr  (** >>> (logical) *)

type expr =
  | Number of float
  | Str of string
  | Bool of bool
  | Null
  | Undefined
  | Var of string
  | This
  | Array_lit of expr list
  | Object_lit of (string * expr) list
  | Index of expr * expr  (** a[i] *)
  | Prop of expr * string  (** o.p — also strings' [.length] etc. *)
  | Call of string * expr list  (** call of a global function by name *)
  | Method_call of expr * string * expr list  (** o.m(args) or builtin method *)
  | New of string * expr list  (** new F(args) with F a global function *)
  | New_array of expr  (** new Array(n) *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | And of expr * expr  (** short-circuit && *)
  | Or of expr * expr  (** short-circuit || *)
  | Cond of expr * expr * expr  (** c ? a : b *)
  | Assign of lvalue * expr
  | Op_assign of binop * lvalue * expr  (** x += e and friends *)
  | Incr of lvalue * int * [ `Pre | `Post ]  (** ++/-- ; int is +1 or -1 *)

and lvalue =
  | Lvar of string
  | Lindex of expr * expr
  | Lprop of expr * string

type stmt =
  | Expr of expr
  | Var_decl of (string * expr option) list
  | If of expr * block * block
  | While of expr * block
  | Do_while of block * expr
  | For of stmt option * expr option * expr option * block
  | Return of expr option
  | Break
  | Continue
  | Block of block

and block = stmt list

type func = { fname : string; params : string list; body : block; fpos : pos }

type item = Func of func | Stmt of stmt

type program = item list

(** All functions of a program, in declaration order. *)
let functions prog =
  List.filter_map (function Func f -> Some f | Stmt _ -> None) prog

(** Top-level statements of a program, in order. *)
let toplevel prog =
  List.filter_map (function Stmt s -> Some s | Func _ -> None) prog

let unop_to_string = function Neg -> "-" | Plus -> "+" | Not -> "!" | Bitnot -> "~"

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="
  | Band -> "&"
  | Bor -> "|"
  | Bxor -> "^"
  | Shl -> "<<"
  | Shr -> ">>"
  | Ushr -> ">>>"
