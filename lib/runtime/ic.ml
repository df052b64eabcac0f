(** Per-site host inline caches, shared by every execution engine: the two
    LIR engines (through [Machine]'s runtime calls and their
    [Store_transition]) and the bytecode tiers ([Interp]).

    A cache is pure host-side memoization.  A hit skips re-hashing the
    property name and re-walking the shape's slot table, but the same
    [note_load]/[note_store] hooks fire in the same order and the caller
    charges the same cost, so no modeled counter can move (DESIGN.md
    §14).  Entries key on the simulated shape id, which is deterministic.
    The rules, which live only here:
    - a get-site never caches a failed name lookup: the name can be
      interned later by an unrelated store, which would make the miss
      stale;
    - a set-site interns eagerly, as the generic path does;
    - shapes are immutable, so a cached (shape id -> slot) entry, even a
      negative one, never goes stale;
    - a transition entry is the memoized child [Shape.transition] returns
      for the cached shape, so the shape id sequence is the same either
      way.

    Every probe takes a [t option]: [None] (caches switched off, as with
    [Vm.create ~host_ic:false]) runs the generic [Shape]/[Heap] helper, so
    the off path is the reference the caches are checked against. *)

type t = {
  mutable sym : int;  (** interned symbol of the site's name; -1 = not yet *)
  mutable shape : int;  (** shape id the entry is valid for; -1 = empty *)
  mutable slot : int;  (** slot index for [shape]; -1 = absent *)
  mutable target : Shape.t option;
      (** transition child of [shape] (set-sites and [Store_transition]) *)
  str_meth : Intrinsics.t option;  (** the site's method on string receivers *)
  arr_meth : Intrinsics.t option;  (** the site's method on array receivers *)
}

let create () =
  { sym = -1; shape = -1; slot = -1; target = None; str_meth = None; arr_meth = None }

(** A cache for a dynamic method call site.  The string and array method
    tables are pure in the name, so they are resolved here, once. *)
let for_method name =
  {
    (create ()) with
    str_meth = Intrinsics.str_method_lookup name;
    arr_meth = Intrinsics.arr_method_lookup name;
  }

(* The get-site symbol: only a successful lookup is cached. *)
let[@inline] find_sym heap c name =
  if c.sym >= 0 then c.sym
  else begin
    let s = Shape.find_sym heap.Heap.shapes name in
    if s >= 0 then c.sym <- s;
    s
  end

(** Get-site slot of [name] in [o]'s shape, -1 when absent.  Hit: one int
    compare.  Miss: the shape's slot table, then refill (monomorphic,
    last shape wins). *)
let find_slot heap (c : t option) (o : Value.obj) name =
  let sh = o.Value.shape in
  match c with
  | None -> Shape.slot_of sh (Shape.find_sym heap.Heap.shapes name)
  | Some c ->
    let s = find_sym heap c name in
    if s >= 0 && c.shape = sh.Shape.id then c.slot
    else begin
      let slot = Shape.slot_of sh s in
      if s >= 0 then begin
        c.shape <- sh.Shape.id;
        c.slot <- slot
      end;
      slot
    end

(** Property read with [Heap.get_prop]'s hooks: the shape-word load, then
    the slot load when the property is present. *)
let get_prop heap c o name = Heap.get_prop_slot heap o (find_slot heap c o name)

(** Set-site probe: the slot [o] already has for [name], or -1 when the
    store will add it (a shape transition).  Fires no hook, so a caller
    can charge on the outcome before [store] runs. *)
let set_slot heap (c : t option) (o : Value.obj) name =
  let sh = o.Value.shape in
  match c with
  | None -> Shape.slot_of sh (Shape.find_sym heap.Heap.shapes name)
  | Some c ->
    if c.sym < 0 then c.sym <- Shape.intern heap.Heap.shapes name;
    if c.shape = sh.Shape.id then c.slot
    else begin
      let slot = Shape.slot_of sh c.sym in
      c.shape <- sh.Shape.id;
      c.slot <- slot;
      c.target <- None;
      slot
    end

(** The store [set_slot] probed for ([slot] is its result), with
    [Heap.set_prop]'s hooks: the shape-word load, then the slot store or
    the transition store. *)
let store heap (c : t option) (o : Value.obj) name slot v =
  match c with
  | None -> Heap.set_prop heap o name v
  | Some c ->
    Heap.note_load heap o.Value.oaddr Heap.word_bytes;
    if slot >= 0 then Heap.store_slot heap o slot v
    else begin
      let tgt =
        match c.target with
        | Some t -> t
        | None ->
          let t = Shape.transition_sym heap.Heap.shapes o.Value.shape c.sym in
          c.target <- Some t;
          t
      in
      Heap.transition_store heap o tgt (tgt.Shape.prop_count - 1) v
    end

(** Property write: [set_slot] then [store]. *)
let set_prop heap c o name v =
  match c with
  | None -> Heap.set_prop heap o name v
  | Some _ -> store heap c o name (set_slot heap c o name) v

(** The shape a [Store_transition] site installs: the memoized child of
    [o]'s shape for [name]. *)
let transition heap (c : t option) (o : Value.obj) name =
  let sh = o.Value.shape in
  match c with
  | Some { shape; target = Some t; _ } when shape = sh.Shape.id -> t
  | Some c ->
    let t = Shape.transition heap.Heap.shapes sh name in
    c.shape <- sh.Shape.id;
    c.target <- Some t;
    t
  | None -> Shape.transition heap.Heap.shapes sh name

(** The intrinsic a dynamic method call on [recv] runs, if any. *)
let method_of (c : t option) (recv : Value.t) name =
  match (c, recv) with
  | Some c, Value.Str _ -> c.str_meth
  | Some c, Value.Arr _ -> c.arr_meth
  | _ -> Intrinsics.method_lookup recv name
