(** Hidden classes ("shapes"/"structures" in JavaScriptCore terminology).

    Every object points at a shape describing its property layout.  Adding a
    property transitions the object to a child shape; objects built by the
    same code path in the same order share shapes, which is what makes the
    FTL tier's property checks (compare one shape pointer) meaningful.

    Property names are interned per universe into dense integer symbols, and
    each shape carries a slot table indexed by symbol, so [slot_of] is one
    array read instead of an assoc-list walk.  A symbol interned *after* a
    shape was created indexes past that shape's table and correctly reads as
    absent — a shape can only contain properties whose symbols existed when
    it was created.

    A [universe] owns the shape tree and the symbol table so that
    independent program runs do not share state and ids stay deterministic:
    shape ids are assigned in transition-creation order and symbol ids in
    interning order, both functions of the program's execution history
    alone. *)

type sym = int

type t = {
  id : int;
  prop_count : int;
  slot_of_sym : int array;
      (* slot index per symbol, -1 when absent; symbols past the end are
         absent (interned after this shape was created) *)
  syms : sym array;  (* property symbols in slot order *)
  names : string list;  (* property names in slot order, precomputed *)
  transitions : (sym, t) Hashtbl.t;
}

type universe = {
  mutable next_id : int;
  root : t;
  sym_ids : (string, sym) Hashtbl.t;
  mutable sym_names : string array;  (* name per symbol, growable *)
  mutable nsyms : int;
}

let create_universe () =
  let root =
    {
      id = 0;
      prop_count = 0;
      slot_of_sym = [||];
      syms = [||];
      names = [];
      transitions = Hashtbl.create 8;
    }
  in
  { next_id = 1; root; sym_ids = Hashtbl.create 64; sym_names = Array.make 16 ""; nsyms = 0 }

let root u = u.root

let universe_size u = u.next_id

(* ------------------------------------------------------------------ *)
(* Symbols *)

(** Intern [name], assigning the next symbol id on first sight. *)
let intern u name =
  match Hashtbl.find_opt u.sym_ids name with
  | Some s -> s
  | None ->
    let s = u.nsyms in
    if s >= Array.length u.sym_names then begin
      let grown = Array.make (2 * Array.length u.sym_names) "" in
      Array.blit u.sym_names 0 grown 0 s;
      u.sym_names <- grown
    end;
    u.sym_names.(s) <- name;
    u.nsyms <- s + 1;
    Hashtbl.add u.sym_ids name s;
    s

(** The symbol for [name], or -1 if it was never interned (in which case no
    shape anywhere contains it). *)
let find_sym u name =
  match Hashtbl.find_opt u.sym_ids name with Some s -> s | None -> -1

let sym_name u s = u.sym_names.(s)

let sym_count u = u.nsyms

(* ------------------------------------------------------------------ *)
(* Lookup *)

(** Slot index of symbol [s] in [shape], -1 when absent.  O(1), no
    allocation. *)
let slot_of shape (s : sym) =
  if s >= 0 && s < Array.length shape.slot_of_sym then
    Array.unsafe_get shape.slot_of_sym s
  else -1

(** Slot index of property [name], if present. *)
let lookup u shape name =
  match slot_of shape (find_sym u name) with -1 -> None | slot -> Some slot

let has_property u shape name = slot_of shape (find_sym u name) >= 0

(** The shape reached by adding the property [s]; creates (and caches) the
    transition.  The new property gets the next slot index. *)
let transition_sym u shape (s : sym) =
  match Hashtbl.find_opt shape.transitions s with
  | Some child -> child
  | None ->
    let table = Array.make (Int.max (Array.length shape.slot_of_sym) (s + 1)) (-1) in
    Array.blit shape.slot_of_sym 0 table 0 (Array.length shape.slot_of_sym);
    table.(s) <- shape.prop_count;
    let child =
      {
        id = u.next_id;
        prop_count = shape.prop_count + 1;
        slot_of_sym = table;
        syms = Array.append shape.syms [| s |];
        names = shape.names @ [ sym_name u s ];
        transitions = Hashtbl.create 4;
      }
    in
    u.next_id <- u.next_id + 1;
    Hashtbl.add shape.transitions s child;
    child

let transition u shape name = transition_sym u shape (intern u name)

(** Property names in slot order.  Precomputed per shape: no allocation. *)
let property_names shape = shape.names

let pp fmt shape =
  Format.fprintf fmt "shape#%d{%s}" shape.id (String.concat "," shape.names)
