(** Type feedback collected by the Baseline tier.

    JavaScriptCore's Baseline JIT embeds value-profiling and inline caches;
    the DFG/FTL tiers read that feedback to decide what to speculate on and
    which checks to emit.  We model the same flow: the Baseline executor
    calls [record_*] at profiled sites (one site per bytecode index), and
    the optimizing tiers query the accumulated [site] data. *)

type value_class =
  | Cls_int
  | Cls_num  (** non-int32 double *)
  | Cls_str
  | Cls_bool
  | Cls_obj
  | Cls_arr
  | Cls_fun
  | Cls_other

let class_of_value (v : Nomap_runtime.Value.t) =
  match v with
  | Int _ -> Cls_int
  | Num _ -> Cls_num
  | Str _ -> Cls_str
  | Bool _ -> Cls_bool
  | Obj _ -> Cls_obj
  | Arr _ -> Cls_arr
  | Fun _ -> Cls_fun
  | Undef | Null | Hole -> Cls_other

type prop_action =
  | Load_slot of int
  | Store_slot of int
  | Transition of int * int  (** resulting shape id, slot written *)

(** Feedback for one bytecode site.  Lists are capped; overflow marks the
    site megamorphic / polymorphic beyond what the tiers specialize for. *)
type site = {
  mutable classes : value_class list;  (** operand/receiver classes seen *)
  mutable result_classes : value_class list;
  mutable shapes : (int * prop_action) list;  (** shape id -> cached action *)
  mutable megamorphic : bool;
  mutable overflowed : bool;  (** int32 arithmetic overflowed here *)
  mutable saw_hole : bool;
  mutable saw_oob : bool;
  mutable saw_elongation : bool;  (** element store grew the array *)
  mutable callees : int list;  (** function ids called from this site *)
  mutable count : int;
}

let max_poly = 4

let fresh_site () =
  {
    classes = [];
    result_classes = [];
    shapes = [];
    megamorphic = false;
    overflowed = false;
    saw_hole = false;
    saw_oob = false;
    saw_elongation = false;
    callees = [];
    count = 0;
  }

(* The placeholder [create_func_profile] builds [sites] from, each slot then
   getting its own fresh site.  [Array.init] would start from a fresh,
   young site, and [Array.make] of a young element over 256 slots forces a
   minor collection, which in OCaml 5 stops every domain. *)
let placeholder_site = fresh_site ()

type func_profile = {
  sites : site array;
  mutable call_count : int;
  mutable ftl_call_count : int;  (** calls executed in optimized code *)
  loop_entries : int array;
      (** per pc: times the loop headed there was entered (an edge from a
          lower pc, or function entry); -1 at a pc that heads no loop *)
  loop_iters : int array;
      (** per pc: back edges (from the same or a higher pc) taken to the
          loop headed there *)
}

let create_func_profile (f : Nomap_bytecode.Opcode.func) =
  let n = Array.length f.code in
  let loop_entries = Array.make n (-1) in
  List.iter (fun pc -> if pc >= 0 && pc < n then loop_entries.(pc) <- 0) f.loop_headers;
  let sites = Array.make n placeholder_site in
  for pc = 0 to n - 1 do
    sites.(pc) <- fresh_site ()
  done;
  {
    sites;
    call_count = 0;
    ftl_call_count = 0;
    loop_entries;
    loop_iters = Array.make n 0;
  }

type t = { profiles : func_profile array }

let create (prog : Nomap_bytecode.Opcode.program) =
  { profiles = Array.map create_func_profile prog.funcs }

let func_profile t fid = t.profiles.(fid)
let site t fid pc = t.profiles.(fid).sites.(pc)

(* Monomorphic membership tests: the record functions run on every
   profiled op, and the polymorphic [List.mem] is a C call per element. *)
let rec mem_class (c : value_class) = function [] -> false | x :: l -> x == c || mem_class c l
let rec mem_int (i : int) = function [] -> false | x :: l -> x = i || mem_int i l

let rec mem_shape (id : int) = function
  | [] -> false
  | (x, _) :: l -> x = id || mem_shape id l

let record_class site v =
  site.count <- site.count + 1;
  let c = class_of_value v in
  if (not (mem_class c site.classes)) && List.length site.classes < max_poly then
    site.classes <- c :: site.classes

let record_result site v =
  let c = class_of_value v in
  if (not (mem_class c site.result_classes)) && List.length site.result_classes < max_poly
  then site.result_classes <- c :: site.result_classes

(* Counts the visit; true when [shape_id] is new to the site and still
   fits under the cap (past it the site goes megamorphic).  The callers
   build the [prop_action] only then. *)
let shape_is_new site shape_id =
  site.count <- site.count + 1;
  if mem_shape shape_id site.shapes then false
  else if List.length site.shapes >= max_poly then begin
    site.megamorphic <- true;
    false
  end
  else true

let record_load_slot site shape_id slot =
  if shape_is_new site shape_id then site.shapes <- (shape_id, Load_slot slot) :: site.shapes

let record_store_slot site shape_id slot =
  if shape_is_new site shape_id then site.shapes <- (shape_id, Store_slot slot) :: site.shapes

let record_transition site shape_id ~target slot =
  if shape_is_new site shape_id then
    site.shapes <- (shape_id, Transition (target, slot)) :: site.shapes

let record_callee site fid =
  if (not (mem_int fid site.callees)) && List.length site.callees < max_poly then
    site.callees <- fid :: site.callees

let record_overflow site = site.overflowed <- true
let record_hole site = site.saw_hole <- true
let record_oob site = site.saw_oob <- true
let record_elongation site = site.saw_elongation <- true

(** Average iterations per entry for the loop headed at [header]; the NoMap
    transaction-placement pass uses this for footprint estimation. *)
let avg_trip_count fp header =
  if header < 0 || header >= Array.length fp.loop_entries then 0.0
  else
    let entries = fp.loop_entries.(header) and iters = fp.loop_iters.(header) in
    if entries > 0 then float_of_int iters /. float_of_int entries
    else float_of_int iters

(** Did this site only ever see int32 values (and never overflow)? *)
let int_only site = site.classes = [ Cls_int ] && not site.overflowed

let number_only site =
  site.classes <> [] && List.for_all (fun c -> c = Cls_int || c = Cls_num) site.classes

(** The unique shape observed at a monomorphic property site. *)
let monomorphic_shape site =
  match site.shapes with
  | [ (shape_id, action) ] when not site.megamorphic -> Some (shape_id, action)
  | _ -> None

(** The unique callee observed at a monomorphic call site. *)
let monomorphic_callee site =
  match site.callees with [ fid ] -> Some fid | _ -> None
