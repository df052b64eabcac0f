(** Transactional footprint tracking against a set-associative cache
    geometry.

    Hardware transactional memory keeps a transaction's speculative lines in
    the cache; the transaction aborts when a set would need more ways than
    the cache has.  This structure records the distinct cache lines touched,
    bucketed by set index, and answers the two questions the paper's Table
    IV and the RTM capacity model need: total footprint (KB) and the maximum
    associativity any set requires.

    Every transactional store (and, under RTM, every load) lands here, so
    the representation is flat: a per-set line count, an open-addressed
    set of line numbers, the running maximum of the counts, and a memo of
    the last line recorded (consecutive accesses to one line skip the
    probe). *)

type t = {
  sets : int;
  ways : int;
  line_bytes : int;
  counts : int array;  (** per set: distinct lines recorded *)
  mutable table : int array;
      (** open-addressed (linear probing) set of line numbers; [empty]
          marks a free slot; length a power of two, at most half full *)
  mutable lines : int;
  mutable max_ways : int;
  mutable last_line : int;  (** most recently recorded line, or [empty] *)
  mutable overflowed : bool;
}

(* Addresses are non-negative, so no line number is negative. *)
let empty = -1
let initial_slots = 64

let create ~sets ~ways ~line_bytes =
  {
    sets;
    ways;
    line_bytes;
    counts = Array.make sets 0;
    table = Array.make initial_slots empty;
    lines = 0;
    max_ways = 0;
    last_line = empty;
    overflowed = false;
  }

(** Geometry helpers for the paper's machine (64B lines).  [scale] divides
    the set count: the workloads are scaled down from the originals, so the
    experiments scale the modeled HTM capacity equally to keep the paper's
    footprint/capacity ratios (see DESIGN.md). *)
let l1d ?(scale = 1) () = create ~sets:(Int.max 1 (32 * 1024 / 64 / 8 / scale)) ~ways:8 ~line_bytes:64
let l2 ?(scale = 1) () = create ~sets:(Int.max 1 (256 * 1024 / 64 / 8 / scale)) ~ways:8 ~line_bytes:64

(* Fibonacci hashing: strided line numbers (one line per set, say) would
   cluster under the identity. *)
let[@inline] slot line mask = ((line * 0x9E3779B97F4A7C1) lsr 20) land mask

(* Insert [line] into [table] if absent; [true] if it was inserted. *)
let insert table line =
  let mask = Array.length table - 1 in
  let i = ref (slot line mask) in
  while
    let x = Array.unsafe_get table !i in
    x <> line && x <> empty
  do
    i := (!i + 1) land mask
  done;
  if Array.unsafe_get table !i = empty then begin
    Array.unsafe_set table !i line;
    true
  end
  else false

let grow t =
  let old = t.table in
  t.table <- Array.make (2 * Array.length old) empty;
  Array.iter (fun line -> if line <> empty then ignore (insert t.table line)) old

let record t line =
  t.last_line <- line;
  if insert t.table line then begin
    t.lines <- t.lines + 1;
    if 2 * t.lines > Array.length t.table then grow t;
    let set = line mod t.sets in
    let n = t.counts.(set) + 1 in
    t.counts.(set) <- n;
    if n > t.max_ways then t.max_ways <- n;
    if n > t.ways then t.overflowed <- true
  end

(** Record an access of [bytes] bytes at [addr]; returns [true] if the
    footprint still fits (every touched set needs <= ways lines). *)
let touch t ~addr ~bytes =
  let first = addr / t.line_bytes in
  let last = (addr + Int.max 1 bytes - 1) / t.line_bytes in
  for line = first to last do
    if line <> t.last_line then record t line
  done;
  not t.overflowed

let bytes t = t.lines * t.line_bytes

(** Maximum number of ways any set needs for this footprint. *)
let max_ways t = t.max_ways

let fits t = not t.overflowed
