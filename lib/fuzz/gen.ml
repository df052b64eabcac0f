(** Seeded random MiniJS program generator.

    Programs are generated as ASTs (not strings) so the shrinker can edit
    them structurally, and every draw flows through a caller-supplied
    {!Nomap_util.Prng.t}: the same seed always yields the same program, on
    any machine, which is what lets CI replay a divergence from its seed.

    The distribution is deliberately biased toward the paper's trigger
    shapes rather than uniform over the grammar:

    - hot counted loops indexing arrays (bounds + hole checks, LICM bait);
    - unmasked accumulator arithmetic ([t = t * 31 + e]) that overflows
      int32 mid-run (overflow checks, SOF, speculation failure);
    - two object literals with the same fields added in different orders,
      read through one conditional access site (shape polymorphism);
    - helper functions called from inside hot loops, some with their own
      loops, so callees tier up mid-caller and deopt/OSR paths fire;
    - persistent global arrays/objects mutated across benchmark calls, so
      the heap checksum observes state the return value cannot;
    - a persistent numeric global ([gs]) that [bench] and the helpers read
      and write: a global variable lives outside the heap, so a
      transaction's rollback must undo its stores by other means;
    - [Shared]/[Atomics] segment operations on a handful of low indices
      (so multi-agent runs actually collide on cache lines): tier-invariant
      solo, and the raw material for the multi-agent determinism axis.
      The segment checksum observes state neither the return value nor the
      heap checksum can. *)

module Ast = Nomap_jsir.Ast
module Prng = Nomap_util.Prng

let pos = { Ast.line = 0; col = 0 }

let pick p xs = List.nth xs (Prng.int p (List.length xs))

(** Pick from [(weight, thunk)] choices; thunks keep recursion lazy. *)
let pick_w p choices =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 choices in
  let r = Prng.int p total in
  let rec go acc = function
    | (w, v) :: rest -> if r < acc + w then v else go (acc + w) rest
    | [] -> assert false
  in
  (go 0 choices) ()

type ctx = {
  p : Prng.t;
  scalars : string list;  (** readable numeric variables in scope *)
  assignable : string list;
      (** scalars statements may write; loop counters are readable but not
          writable, else most programs are accidental infinite loops *)
  arrays : (string * int) list;  (** array name, literal (minimum) length *)
  objects : string list;  (** object variables; all carry fields x and y *)
  helpers : string list;  (** callable arity-2 helper functions *)
}

let num f = Ast.Number f
let int_lit i = num (float_of_int i)

(* ------------------------------------------------------------------ *)
(* Expressions *)

let array_index ctx (_name, len) =
  let i =
    match ctx.scalars with
    | [] -> int_lit (Prng.int ctx.p len)
    | vars -> Ast.Var (pick ctx.p vars)
  in
  pick_w ctx.p
    [
      (3, fun () -> Ast.Binop (Ast.Mod, i, int_lit len));
      (2, fun () -> Ast.Binop (Ast.Mod, Ast.Binop (Ast.Add, i, int_lit (1 + Prng.int ctx.p 5)), int_lit len));
      (* In-bounds only when the driving var is the loop counter of a loop
         bounded by [len]; otherwise exercises the generic OOB path. *)
      (1, fun () -> i);
      (1, fun () -> int_lit (Prng.int ctx.p len));
    ]

(** Write index: [array_index] with the raw-scalar variant masked.  A raw
    write elongates the array to the scalar's value, and an accumulator
    that doubled every trip ([t += t]) reaches ~2^19 — a later loop
    bounded by [a.length] then needs more ops than any fuel budget
    (same hazard class as the guarded [push] below).  Masking to 8x the
    literal length keeps elongation and holes while bounding every
    length-driven loop. *)
let array_write_index ctx ((_, len) as a) =
  match array_index ctx a with
  | Ast.Var _ as i -> Ast.Binop (Ast.Mod, i, int_lit (8 * len))
  | e -> e

(** Segment index: a low literal, or a scalar folded into the same range —
    a handful of hot slots (two cache lines), so concurrent agents running
    the same generated program genuinely conflict.  Negative scalars are
    fine: segment indices wrap, JS-typed-array style. *)
let shared_index ctx =
  match ctx.scalars with
  | vars when vars <> [] && Prng.bool ctx.p ->
    Ast.Binop (Ast.Mod, Ast.Var (pick ctx.p vars), int_lit 12)
  | _ -> int_lit (Prng.int ctx.p 12)

let leaf ctx =
  let scalar = match ctx.scalars with [] -> None | vs -> Some (fun () -> Ast.Var (pick ctx.p vs)) in
  let array =
    match ctx.arrays with
    | [] -> None
    | arrs ->
      Some
        (fun () ->
          let a = pick ctx.p arrs in
          pick_w ctx.p
            [
              (4, fun () -> Ast.Index (Ast.Var (fst a), array_index ctx a));
              (1, fun () -> Ast.Prop (Ast.Var (fst a), "length"));
            ])
  in
  let obj =
    match ctx.objects with
    | [] -> None
    | os -> Some (fun () -> Ast.Prop (Ast.Var (pick ctx.p os), pick ctx.p [ "x"; "y" ]))
  in
  let consts () =
    pick_w ctx.p
      [
        (5, fun () -> int_lit (Prng.int ctx.p 41 - 20));
        (* Overflow fodder: products of these cross 2^31 quickly. *)
        (1, fun () -> int_lit (100_000 + Prng.int ctx.p 2_000_000));
        (1, fun () -> num (pick ctx.p [ 1.5; 0.25; 3.75; -2.5 ]));
      ]
  in
  let shared () =
    pick_w ctx.p
      [
        (3, fun () -> Ast.Method_call (Ast.Var "Atomics", "load", [ shared_index ctx ]));
        (2, fun () -> Ast.Method_call (Ast.Var "Shared", "read", [ shared_index ctx ]));
        (1, fun () -> Ast.Method_call (Ast.Var "Shared", "size", []));
      ]
  in
  let choices =
    List.filter_map Fun.id
      [
        Option.map (fun f -> (5, f)) scalar;
        Option.map (fun f -> (3, f)) array;
        Option.map (fun f -> (2, f)) obj;
        Some (3, consts);
        Some (1, shared);
      ]
  in
  pick_w ctx.p choices

let rec expr ctx n =
  if n <= 0 then leaf ctx
  else
    pick_w ctx.p
      [
        (3, fun () -> leaf ctx);
        ( 6,
          fun () ->
            let op = pick ctx.p Ast.[ Add; Add; Sub; Mul; Band; Bor; Bxor ] in
            Ast.Binop (op, expr ctx (n / 2), expr ctx (n / 2)) );
        ( 1,
          fun () ->
            (* Divisor is a nonzero literal: Div/Mod by zero is legal MiniJS
               (NaN) but floods everything downstream with NaN, which hides
               more interesting divergences. *)
            let op = pick ctx.p Ast.[ Div; Mod ] in
            Ast.Binop (op, expr ctx (n / 2), int_lit (1 + Prng.int ctx.p 9)) );
        ( 1,
          fun () ->
            let op = pick ctx.p Ast.[ Shl; Shr; Ushr ] in
            Ast.Binop (op, expr ctx (n / 2), int_lit (1 + Prng.int ctx.p 4)) );
        ( 1,
          fun () ->
            let f = pick ctx.p [ "floor"; "abs"; "min"; "max" ] in
            let args =
              if f = "min" || f = "max" then [ expr ctx (n / 2); expr ctx (n / 2) ]
              else [ expr ctx (n - 1) ]
            in
            Ast.Method_call (Ast.Var "Math", f, args) );
        (1, fun () -> Ast.Cond (cond ctx (n / 2), expr ctx (n / 2), expr ctx (n / 2)));
        ( (if ctx.helpers = [] then 0 else 2),
          fun () ->
            Ast.Call (pick ctx.p ctx.helpers, [ expr ctx (n / 2); expr ctx (n / 2) ]) );
      ]

and cond ctx n =
  pick_w ctx.p
    [
      ( 3,
        fun () ->
          let c = pick ctx.p Ast.[ Lt; Le; Gt; Ge; Eq; Ne ] in
          Ast.Binop (c, expr ctx (n / 2), expr ctx (n / 2)) );
      ( 2,
        fun () ->
          match ctx.scalars with
          | [] -> Ast.Bool true
          | vs ->
            Ast.Binop
              ( Ast.Eq,
                Ast.Binop (Ast.Band, Ast.Var (pick ctx.p vs), int_lit 3),
                int_lit (Prng.int ctx.p 4) ) );
    ]

(* ------------------------------------------------------------------ *)
(* Statements *)

(** Loop variables by nesting depth; generated loops never shadow. *)
let loop_var_names = [| "i"; "j"; "k" |]

let rec stmt ctx ~depth : Ast.stmt =
  let e n = expr ctx n in
  let assign_scalar () =
    match ctx.assignable with
    | [] -> Ast.Expr (e 2)
    | vs ->
      let v = pick ctx.p vs in
      pick_w ctx.p
        [
          (2, fun () -> Ast.Expr (Ast.Assign (Ast.Lvar v, e 4)));
          (2, fun () -> Ast.Expr (Ast.Op_assign (Ast.Add, Ast.Lvar v, e 3)));
          (* Masked wrap: the (x op y) & m shape Elide targets. *)
          ( 2,
            fun () ->
              Ast.Expr
                (Ast.Assign
                   (Ast.Lvar v, Ast.Binop (Ast.Band, Ast.Binop (Ast.Add, Ast.Var v, e 3), int_lit 0xFFFFF)))
          );
          (* Unmasked multiply-accumulate: overflows int32 mid-run. *)
          ( 2,
            fun () ->
              Ast.Expr
                (Ast.Assign
                   (Ast.Lvar v, Ast.Binop (Ast.Add, Ast.Binop (Ast.Mul, Ast.Var v, int_lit 31), e 2)))
          );
        ]
  in
  let choices =
    [
      (5, assign_scalar);
      ( (if ctx.arrays = [] then 0 else 3),
        fun () ->
          let a = pick ctx.p ctx.arrays in
          Ast.Expr (Ast.Assign (Ast.Lindex (Ast.Var (fst a), array_write_index ctx a), e 3)) );
      ( (if ctx.objects = [] then 0 else 3),
        fun () ->
          let o = pick ctx.p ctx.objects in
          let f = pick ctx.p [ "x"; "y"; "z" ] in
          (* Writing z transitions the shape the first time. *)
          pick_w ctx.p
            [
              (2, fun () -> Ast.Expr (Ast.Assign (Ast.Lprop (Ast.Var o, f), e 3)));
              (1, fun () -> Ast.Expr (Ast.Op_assign (Ast.Add, Ast.Lprop (Ast.Var o, f), e 2)));
            ] );
      ( (if List.length ctx.objects < 2 || ctx.assignable = [] then 0 else 2),
        fun () ->
          (* The shape-polymorphic access site: one Prop read fed by two
             object literals whose shapes differ. *)
          let o1 = pick ctx.p ctx.objects in
          let o2 = pick ctx.p (List.filter (fun o -> o <> o1) ctx.objects) in
          let s = pick ctx.p ctx.assignable in
          Ast.Expr
            (Ast.Op_assign
               ( Ast.Add,
                 Ast.Lvar s,
                 Ast.Prop (Ast.Cond (cond ctx 2, Ast.Var o1, Ast.Var o2), pick ctx.p [ "x"; "y" ])
               )) );
      ( (if ctx.helpers = [] || ctx.assignable = [] then 0 else 3),
        fun () ->
          let s = pick ctx.p ctx.assignable in
          Ast.Expr
            (Ast.Op_assign
               (Ast.Add, Ast.Lvar s, Ast.Call (pick ctx.p ctx.helpers, [ e 2; e 2 ]))) );
      (2, fun () -> Ast.If (cond ctx 3, block ctx ~depth ~n:(1 + Prng.int ctx.p 2), []));
      ( 1,
        fun () ->
          Ast.If
            (cond ctx 3, block ctx ~depth ~n:1, block ctx ~depth ~n:1) );
      ((if depth >= 2 then 0 else 2), fun () -> counted_loop ctx ~depth);
      ((if depth = 0 then 0 else 1), fun () -> Ast.If (cond ctx 2, [ Ast.Continue ], []));
      ( (if ctx.arrays = [] then 0 else 1),
        fun () ->
          let a = pick ctx.p ctx.arrays in
          (* Guarded: an unbounded push inside a loop bounded by the same
             array's length never terminates. *)
          Ast.If
            ( Ast.Binop (Ast.Lt, Ast.Prop (Ast.Var (fst a), "length"), int_lit 64),
              [ Ast.Expr (Ast.Method_call (Ast.Var (fst a), "push", [ e 2 ])) ],
              [] ) );
      (* Segment mutations: RMWs dominate (the interesting transactional
         shape), with plain stores, fences and a CAS in the tail. *)
      ( 2,
        fun () ->
          let call m args = Ast.Expr (Ast.Method_call (Ast.Var "Atomics", m, args)) in
          pick_w ctx.p
            [
              (3, fun () -> call "add" [ shared_index ctx; e 2 ]);
              (2, fun () -> call "store" [ shared_index ctx; e 3 ]);
              (1, fun () -> call "sub" [ shared_index ctx; e 2 ]);
              ( 1,
                fun () ->
                  Ast.Expr
                    (Ast.Method_call (Ast.Var "Shared", "write", [ shared_index ctx; e 2 ]))
              );
              (1, fun () -> call "fence" []);
            ] );
      ( (if ctx.assignable = [] then 0 else 1),
        fun () ->
          (* RMW results feed back into private state, so a stale old-value
             is visible to the result global, not just the segment. *)
          let s = pick ctx.p ctx.assignable in
          pick_w ctx.p
            [
              ( 2,
                fun () ->
                  Ast.Expr
                    (Ast.Op_assign
                       ( Ast.Add,
                         Ast.Lvar s,
                         Ast.Method_call
                           (Ast.Var "Atomics", "exchange", [ shared_index ctx; e 2 ]) )) );
              ( 1,
                fun () ->
                  Ast.Expr
                    (Ast.Assign
                       ( Ast.Lvar s,
                         Ast.Method_call
                           ( Ast.Var "Atomics",
                             "compareExchange",
                             [ shared_index ctx; e 2; e 2 ] ) )) );
            ] );
    ]
  in
  pick_w ctx.p choices

and block ctx ~depth ~n = List.init n (fun _ -> stmt ctx ~depth)

(** [for (var v = 0; v < trip; v++) { ... }] with a fresh loop variable. *)
and counted_loop ctx ~depth =
  let v = loop_var_names.(min depth (Array.length loop_var_names - 1)) in
  (* Trip counts are deliberately modest: per-case cost is the product of
     driver iterations × outer × inner × helper loops across ten
     configurations, so generous bounds here turn a campaign from seconds
     into hours. *)
  let trip =
    if depth = 0 then 8 + Prng.int ctx.p 17 (* hot outer loop *)
    else 2 + Prng.int ctx.p 4 (* small inner loop *)
  in
  let bound =
    (* Half the loops are bounded by an array length: the classic
       bounds-check-dominated shape the paper profiles. *)
    match ctx.arrays with
    | (a, _) :: _ when depth = 0 && Prng.bool ctx.p -> Ast.Prop (Ast.Var a, "length")
    | _ -> int_lit trip
  in
  let inner = { ctx with scalars = v :: ctx.scalars } in
  Ast.For
    ( Some (Ast.Var_decl [ (v, Some (int_lit 0)) ]),
      Some (Ast.Binop (Ast.Lt, Ast.Var v, bound)),
      Some (Ast.Incr (Ast.Lvar v, 1, `Post)),
      block inner ~depth:(depth + 1) ~n:(1 + Prng.int ctx.p 4) )

(* ------------------------------------------------------------------ *)
(* Whole programs *)

let helper_fun ctx name =
  let inner =
    { ctx with scalars = [ "x"; "y"; "r"; "gs" ]; assignable = [ "x"; "y"; "r"; "gs" ] }
  in
  let body =
    pick_w ctx.p
      [
        (* Straight-line arithmetic. *)
        (2, fun () -> [ Ast.Var_decl [ ("r", Some (expr inner 4)) ] ]);
        ( 2,
          fun () ->
            (* A loop of its own: the callee tiers up (and OSRs) while its
               caller is hot. *)
            [
              Ast.Var_decl [ ("r", Some (int_lit 0)) ];
              counted_loop { inner with arrays = [] } ~depth:1;
            ] );
      ]
  in
  { Ast.fname = name; params = [ "x"; "y" ]; body = body @ [ Ast.Return (Some (Ast.Var "r")) ]; fpos = pos }

let int_array_lit p len = Ast.Array_lit (List.init len (fun _ -> int_lit (Prng.int p 19 - 9)))

let obj_lit p fields = Ast.Object_lit (List.map (fun f -> (f, int_lit (Prng.int p 9))) fields)

(** Generate one program from [p].  Structure: optional helpers, a [bench]
    function over locals and persistent globals, and a fixed driver that
    calls [bench] 32 times (past the FTL tier-up threshold of 20, so the
    last dozen calls execute FTL-compiled code) into [result]. *)
let program p : Ast.program =
  let base = { p; scalars = []; assignable = []; arrays = []; objects = []; helpers = [] } in
  let n_helpers = Prng.int p 3 in
  let helper_names = List.init n_helpers (fun i -> Printf.sprintf "h%d" i) in
  (* Each helper may call the ones declared before it. *)
  let helpers, _ =
    List.fold_left
      (fun (acc, prior) name ->
        (helper_fun { base with helpers = prior } name :: acc, name :: prior))
      ([], []) helper_names
  in
  let helpers = List.rev helpers in
  let ga_len = 6 + Prng.int p 5 in
  let la_len = 6 + Prng.int p 5 in
  let ctx =
    {
      p;
      scalars = [ "s"; "t"; "gs" ];
      assignable = [ "s"; "t"; "gs" ];
      arrays = [ ("a", la_len); ("ga", ga_len) ];
      objects = [ "o"; "q"; "go" ];
      helpers = helper_names;
    }
  in
  let decls =
    [
      Ast.Var_decl [ ("s", Some (int_lit 0)) ];
      Ast.Var_decl [ ("t", Some (int_lit 1)) ];
      Ast.Var_decl [ ("a", Some (int_array_lit p la_len)) ];
      (* Same fields, opposite insertion order: distinct shapes. *)
      Ast.Var_decl [ ("o", Some (obj_lit p [ "x"; "y" ])) ];
      Ast.Var_decl [ ("q", Some (obj_lit p [ "y"; "x" ])) ];
    ]
  in
  let loops =
    counted_loop ctx ~depth:0
    :: (if Prng.bool p then [ counted_loop ctx ~depth:0 ] else [])
  in
  let ret =
    let parts =
      [
        Ast.Var "s";
        Ast.Var "t";
        Ast.Var "gs";
        Ast.Prop (Ast.Var "o", "x");
        Ast.Prop (Ast.Var "q", "y");
        Ast.Index (Ast.Var "a", int_lit 0);
        Ast.Index (Ast.Var "a", Ast.Binop (Ast.Sub, Ast.Prop (Ast.Var "a", "length"), int_lit 1));
      ]
    in
    Ast.Return (Some (List.fold_left (fun acc e -> Ast.Binop (Ast.Add, acc, e)) (List.hd parts) (List.tl parts)))
  in
  let bench = { Ast.fname = "bench"; params = []; body = decls @ loops @ [ ret ]; fpos = pos } in
  let globals =
    [
      Ast.Stmt (Ast.Var_decl [ ("ga", Some (int_array_lit p ga_len)) ]);
      Ast.Stmt (Ast.Var_decl [ ("go", Some (obj_lit p [ "x"; "y" ])) ]);
      Ast.Stmt (Ast.Var_decl [ ("gs", Some (int_lit 0)) ]);
    ]
  in
  let driver =
    [
      Ast.Stmt (Ast.Var_decl [ ("result", Some (int_lit 0)) ]);
      Ast.Stmt (Ast.Var_decl [ ("it", None) ]);
      Ast.Stmt
        (Ast.For
           ( Some (Ast.Expr (Ast.Assign (Ast.Lvar "it", int_lit 0))),
             Some (Ast.Binop (Ast.Lt, Ast.Var "it", int_lit 32)),
             Some (Ast.Incr (Ast.Lvar "it", 1, `Post)),
             [ Ast.Expr (Ast.Assign (Ast.Lvar "result", Ast.Call ("bench", []))) ] ));
    ]
  in
  globals @ List.map (fun f -> Ast.Func f) helpers @ [ Ast.Func bench ] @ driver

let program_of_seed ~seed = program (Prng.create ~seed)

let to_source prog = Nomap_jsir.Printer.program_to_string prog
