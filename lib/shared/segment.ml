(** A shared heap segment: the SharedArrayBuffer of the multi-agent runtime
    (DESIGN.md §16).

    A segment is a flat array of integers living *outside* every per-VM
    heap: agents address it by element index through the [Shared]/[Atomics]
    intrinsics, never through object references, so no MiniJS value can leak
    from one agent's private heap into another's.  All mutation happens
    under the owning registry's lock ([Agent]); this module only provides
    the storage, the simulated address layout the cache/HTM models see, and
    a checksum for the differential oracle.

    Address layout: segments occupy a reserved region far above any per-VM
    heap allocation (VM heaps bump-allocate from 0x10000 and never reach
    the segment base), 8 bytes per element, so footprint tracking and
    cache-line conflict granularity fall out of the same arithmetic the
    private heap uses. *)

type t = { data : int array }

(** Simulated address of element 0. *)
let segment_base = 0x4000_0000

(* Max 128K elements per segment. *)
let max_bytes = 0x10_0000
let word_bytes = 8

(** Elements per 64-byte cache line: conflict-detection granularity. *)
let line_words = 8

let create ~size =
  if size <= 0 || size * word_bytes > max_bytes then
    invalid_arg (Printf.sprintf "Segment.create: size %d out of range" size);
  { data = Array.make size 0 }

let length t = Array.length t.data

let size_bytes t = Array.length t.data * word_bytes

(** JS typed-array style index normalization: wrap out-of-range indices into
    the segment instead of trapping, keeping every generated program (fuzz
    shapes included) well-defined. *)
let wrap t i =
  let n = Array.length t.data in
  ((i mod n) + n) mod n

let addr_of i = segment_base + (i * word_bytes)

(** Cache line of element [i], in segment-relative line units. *)
let line_of i = i / line_words

let get t i = t.data.(i)
let set t i v = t.data.(i) <- v

(** FNV-1a over the element values, for the fuzz oracle's observation
    (same construction as [Heap_checksum]). *)
let checksum t =
  let h = ref Nomap_util.Fnv.basis in
  Array.iter
    (fun v ->
      h := Nomap_util.Fnv.byte (Nomap_util.Fnv.string !h (string_of_int v)) 0xFF)
    t.data;
  !h
