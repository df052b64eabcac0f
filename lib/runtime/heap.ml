(** The simulated heap: allocation with simulated addresses, plus every
    object/array/string access path.

    All memory traffic funnels through [note_load]/[note_store] hooks so the
    HTM layer can journal transactional writes (for rollback and write-set
    footprint) and the cache model can observe addresses.  Outside
    transactions the hooks are no-ops, and [hooks.active] says so up front:
    the hot paths test one boolean instead of calling a no-op closure — and,
    for stores, instead of allocating an undo closure nobody will run.
    Installing hooks (the HTM layer, tests) must set [active].

    Addresses are fictitious but behave like real ones: allocation bumps a
    pointer, property storage and array storage get their own regions, and
    growing an array moves its storage to a fresh region (butterfly
    reallocation in JavaScriptCore terms). *)

type hooks = {
  mutable active : bool;
      (** hooks are installed; when false no hook is called (and no undo
          closure is allocated) *)
  mutable load : int -> int -> unit;  (** addr, bytes *)
  mutable store : int -> int -> (unit -> unit) -> unit;  (** addr, bytes, undo *)
  mutable io : unit -> unit;
      (** called before any observable I/O; a transaction installs an
          irrevocability guard here (paper V-A) *)
  mutable journal : (unit -> unit) -> unit;
      (** an undo for a store outside the heap (a global variable): it
          joins the transaction's rollback but touches no footprint line
          and no counter *)
}

(** Operations on the VM's attached shared segment (SharedArrayBuffer-style;
    DESIGN.md §16).  The runtime layer only names them; the implementation
    lives in [lib/shared] and is installed as the [shared] closure below, so
    [Intrinsics.eval] can dispatch without a dependency cycle. *)
type shared_op =
  | Sh_read  (** Shared.read(i) — plain (non-atomic) element read *)
  | Sh_write  (** Shared.write(i, v) — plain element write; returns v *)
  | Sh_size  (** Shared.size() — element count *)
  | Sh_load  (** Atomics.load(i) *)
  | Sh_store  (** Atomics.store(i, v) — returns v *)
  | Sh_add  (** Atomics.add(i, v) — returns the old value *)
  | Sh_sub  (** Atomics.sub(i, v) — returns the old value *)
  | Sh_exchange  (** Atomics.exchange(i, v) — returns the old value *)
  | Sh_cas  (** Atomics.compareExchange(i, expected, v) — returns the old value *)
  | Sh_fence  (** Atomics.fence() — SC fence; returns 0 *)

type t = {
  mutable next_addr : int;
  mutable next_oid : int;
  mutable next_aid : int;
  mutable next_sid : int;
  shapes : Shape.universe;
  hooks : hooks;
  prng : Nomap_util.Prng.t;  (** backs Math.random deterministically *)
  mutable bytes_allocated : int;
  mutable shared : (shared_op -> Value.t list -> Value.t) option;
      (** agent-runtime dispatch for [shared_op]; [None] until an agent
          attaches a segment (Agent.install) *)
}

let no_hooks () =
  {
    active = false;
    load = (fun _ _ -> ());
    store = (fun _ _ _ -> ());
    io = (fun () -> ());
    journal = (fun _ -> ());
  }

let create ?(seed = 42) () =
  {
    next_addr = 0x10000;
    next_oid = 0;
    next_aid = 0;
    next_sid = 0;
    shapes = Shape.create_universe ();
    hooks = no_hooks ();
    prng = Nomap_util.Prng.create ~seed;
    bytes_allocated = 0;
    shared = None;
  }

let word_bytes = 8

let[@inline] note_load t addr bytes = if t.hooks.active then t.hooks.load addr bytes

let alloc_region t bytes =
  let bytes = (bytes + 15) land lnot 15 in
  let addr = t.next_addr in
  t.next_addr <- t.next_addr + bytes;
  t.bytes_allocated <- t.bytes_allocated + bytes;
  addr

(* ------------------------------------------------------------------ *)
(* Strings *)

let alloc_string t s : Value.jsstring =
  let sid = t.next_sid in
  t.next_sid <- t.next_sid + 1;
  let saddr = alloc_region t (16 + String.length s) in
  { Value.sid; sdata = s; saddr }

let str t s = Value.Str (alloc_string t s)

(* ------------------------------------------------------------------ *)
(* Objects *)

let initial_slot_capacity = 4

let alloc_object t : Value.obj =
  let oid = t.next_oid in
  t.next_oid <- t.next_oid + 1;
  let oaddr = alloc_region t 16 in
  let slots_addr = alloc_region t (initial_slot_capacity * word_bytes) in
  {
    Value.oid;
    shape = Shape.root t.shapes;
    slots = Array.make initial_slot_capacity Value.Undef;
    oaddr;
    slots_addr;
  }

let slot_addr (o : Value.obj) slot = o.slots_addr + (slot * word_bytes)

(** Read a property slot directly (the FTL fast path after a shape check). *)
let load_slot t (o : Value.obj) slot =
  note_load t (slot_addr o slot) word_bytes;
  o.Value.slots.(slot)

(** Write a property slot directly (fast path after a shape check). *)
let store_slot t (o : Value.obj) slot v =
  if t.hooks.active then begin
    let old = o.Value.slots.(slot) in
    t.hooks.store (slot_addr o slot) word_bytes (fun () -> o.Value.slots.(slot) <- old)
  end;
  o.Value.slots.(slot) <- v

(** Generic property read (the Baseline/runtime path).  Reads the shape word
    too, as the inline-cache probe would, then the slot when the property
    is present. *)
let get_prop t (o : Value.obj) name =
  note_load t o.Value.oaddr word_bytes;
  match Shape.slot_of o.Value.shape (Shape.find_sym t.shapes name) with
  | -1 -> Value.Undef
  | slot -> load_slot t o slot

(** Transition fast path: the caller has verified the object's current
    shape; install [new_shape] and store the added property's value (the
    FTL-compiled constructor pattern).  Journals both mutations. *)
let transition_store t (o : Value.obj) new_shape slot v =
  let old_slots = o.Value.slots in
  let need_grow = slot >= Array.length old_slots in
  let new_slots =
    if need_grow then begin
      let grown = Array.make (Int.max 4 (2 * Array.length old_slots)) Value.Undef in
      Array.blit old_slots 0 grown 0 (Array.length old_slots);
      grown
    end
    else old_slots
  in
  let new_slots_addr =
    if need_grow then alloc_region t (Array.length new_slots * word_bytes)
    else o.Value.slots_addr
  in
  if t.hooks.active then begin
    let old_shape = o.Value.shape in
    let old_slots_addr = o.Value.slots_addr in
    t.hooks.store o.Value.oaddr word_bytes (fun () ->
        o.Value.shape <- old_shape;
        o.Value.slots <- old_slots;
        o.Value.slots_addr <- old_slots_addr)
  end;
  o.Value.shape <- new_shape;
  o.Value.slots <- new_slots;
  o.Value.slots_addr <- new_slots_addr;
  store_slot t o slot v

(** Generic property write by (interned) symbol; transitions the shape when
    the property is new. *)
let set_prop_sym t (o : Value.obj) sym v =
  note_load t o.Value.oaddr word_bytes;
  match Shape.slot_of o.Value.shape sym with
  | -1 ->
    let new_shape = Shape.transition_sym t.shapes o.Value.shape sym in
    transition_store t o new_shape (new_shape.Shape.prop_count - 1) v
  | slot -> store_slot t o slot v

(** Generic property write; transitions the shape when [name] is new. *)
let set_prop t (o : Value.obj) name v = set_prop_sym t o (Shape.intern t.shapes name) v

(* ------------------------------------------------------------------ *)
(* Arrays *)

(** The array-length rule of [new Array(n)], which every tier applies
    before [alloc_array]: [n] must lie in [0, 2^24]; otherwise the tier
    raises its runtime error with [bad_array_length]. *)
let array_length_ok n = n >= 0 && n <= 1 lsl 24

let bad_array_length = "invalid array length"

let alloc_array t len : Value.arr =
  let aid = t.next_aid in
  t.next_aid <- t.next_aid + 1;
  let capacity = Int.max len 4 in
  let aaddr = alloc_region t 16 in
  let elems_addr = alloc_region t (capacity * word_bytes) in
  { Value.aid; elems = Array.make capacity Value.Hole; alen = len; aaddr; elems_addr }

let elem_addr (a : Value.arr) i = a.Value.elems_addr + (i * word_bytes)

(** Unchecked element read — the FTL fast path after a bounds check.  If the
    index is actually out of range (possible inside a doomed transaction when
    NoMap deferred the bounds check), return a deterministic garbage value;
    the transaction will abort before the result can matter. *)
let load_elem t (a : Value.arr) i =
  if i >= 0 && i < Array.length a.Value.elems then begin
    note_load t (elem_addr a i) word_bytes;
    a.Value.elems.(i)
  end
  else Value.Int 0

(** Unchecked element write (fast path).  Out-of-range writes inside a doomed
    transaction are dropped: real hardware would buffer and then discard them
    at abort. *)
let store_elem t (a : Value.arr) i v =
  if i >= 0 && i < Array.length a.Value.elems then begin
    if t.hooks.active then begin
      let old = a.Value.elems.(i) in
      t.hooks.store (elem_addr a i) word_bytes (fun () -> a.Value.elems.(i) <- old)
    end;
    a.Value.elems.(i) <- v
  end

let grow_array t (a : Value.arr) needed =
  let old_elems = a.Value.elems in
  let capacity = Int.max needed (Int.max 4 (2 * Array.length old_elems)) in
  let grown = Array.make capacity Value.Hole in
  Array.blit old_elems 0 grown 0 (Array.length old_elems);
  let grown_addr = alloc_region t (capacity * word_bytes) in
  if t.hooks.active then begin
    let old_elems_addr = a.Value.elems_addr in
    t.hooks.store a.Value.aaddr word_bytes (fun () ->
        a.Value.elems <- old_elems;
        a.Value.elems_addr <- old_elems_addr)
  end;
  a.Value.elems <- grown;
  a.Value.elems_addr <- grown_addr

let set_length t (a : Value.arr) len =
  let old_len = a.Value.alen in
  if len <> old_len then begin
    if t.hooks.active then
      t.hooks.store a.Value.aaddr word_bytes (fun () -> a.Value.alen <- old_len);
    a.Value.alen <- len
  end

(** Generic element read (Baseline/runtime path): bounds and hole handling
    per JS — out of range or hole reads yield [undefined], never crash. *)
let get_elem t (a : Value.arr) i =
  note_load t a.Value.aaddr word_bytes;
  if i < 0 || i >= a.Value.alen then Value.Undef
  else
    match load_elem t a i with
    | Value.Hole -> Value.Undef
    | v -> v

(** Generic element write: elongates the array as JS does. *)
let set_elem t (a : Value.arr) i v =
  note_load t a.Value.aaddr word_bytes;
  if i < 0 then ()
  else begin
    if i >= Array.length a.Value.elems then grow_array t a (i + 1);
    if i >= a.Value.alen then set_length t a (i + 1);
    store_elem t a i v
  end

let array_push t (a : Value.arr) v =
  set_elem t a a.Value.alen v;
  Value.int_ a.Value.alen

let array_pop t (a : Value.arr) =
  if a.Value.alen = 0 then Value.Undef
  else begin
    let i = a.Value.alen - 1 in
    let v = get_elem t a i in
    store_elem t a i Value.Hole;
    set_length t a i;
    v
  end

(* ------------------------------------------------------------------ *)

(* Math.random mutates the PRNG: journal the state like any store so a
   transactional rollback replays the same sequence. *)
let math_random t =
  if t.hooks.active then begin
    let saved = Nomap_util.Prng.state t.prng in
    t.hooks.store 8 (* fixed pseudo-address for the PRNG cell *) 8 (fun () ->
        Nomap_util.Prng.set_state t.prng saved)
  end;
  Nomap_util.Prng.float t.prng 1.0
