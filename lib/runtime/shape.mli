(** Hidden classes ("shapes"/"structures" in JavaScriptCore terminology).

    Every object points at a shape describing its property layout; adding a
    property transitions to a child shape.  Objects built by the same code
    path share shapes, which is what makes the FTL tier's property checks
    (compare one shape pointer) meaningful.

    Property names are interned per universe into dense integer symbols
    ([sym]); each shape carries a slot table indexed by symbol, making
    lookup one array read.  Symbol ids and shape ids are host-side only —
    no simulated metric depends on them — but both are deterministic
    functions of the program's execution history. *)

(** An interned property name (dense, per-universe). *)
type sym = int

type t = {
  id : int;
  prop_count : int;
  slot_of_sym : int array;
      (** slot index per symbol, -1 when absent; symbols past the end are
          absent *)
  syms : sym array;  (** property symbols in slot order *)
  names : string list;  (** property names in slot order, precomputed *)
  transitions : (sym, t) Hashtbl.t;
}

(** A universe owns a shape tree and its symbol table: independent program
    runs do not share state and ids stay deterministic. *)
type universe

val create_universe : unit -> universe

(** The empty root shape. *)
val root : universe -> t

(** Number of shapes ever created (root included): the next fresh shape id.
    Equal across two runs of the same program — the shape-universe
    determinism invariant. *)
val universe_size : universe -> int

(** Intern a property name, assigning the next symbol id on first sight. *)
val intern : universe -> string -> sym

(** The symbol for a name, or -1 if never interned (no shape contains it). *)
val find_sym : universe -> string -> sym

val sym_name : universe -> sym -> string

(** Number of symbols interned so far. *)
val sym_count : universe -> int

(** Slot index of a symbol, -1 when absent.  O(1), no allocation. *)
val slot_of : t -> sym -> int

(** No allocation. *)
val has_property : universe -> t -> string -> bool

(** The shape reached by adding a property; creates (and caches) the
    transition.  The new property gets the next slot index. *)
val transition : universe -> t -> string -> t

val transition_sym : universe -> t -> sym -> t

(** Property names in slot order.  Precomputed per shape: no allocation. *)
val property_names : t -> string list
