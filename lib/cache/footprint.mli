(** Transactional footprint tracking against a set-associative cache
    geometry.

    HTM keeps a transaction's speculative lines in the cache; the
    transaction aborts when any set would need more ways than the cache
    has.  This records the distinct lines touched, bucketed by set, and
    answers the two questions Table IV and the RTM capacity model need:
    total footprint and the maximum associativity any set requires.  The
    state is flat arrays (per-set counts, an open-addressed line set), so
    recording a line allocates nothing and hashes nothing polymorphic. *)

type t = private {
  sets : int;
  ways : int;
  line_bytes : int;
  counts : int array;
  mutable table : int array;
  mutable lines : int;
  mutable max_ways : int;
  mutable last_line : int;
  mutable overflowed : bool;
}

val create : sets:int -> ways:int -> line_bytes:int -> t

(** Skylake L1D (32KB, 8-way, 64B lines); [scale] divides the set count to
    match scaled-down workloads (DESIGN.md §6). *)
val l1d : ?scale:int -> unit -> t

(** Skylake L2 (256KB, 8-way, 64B lines). *)
val l2 : ?scale:int -> unit -> t

(** Record an access to [addr >= 0]; [false] once any set exceeds its ways
    (sticky).  Lines keep being recorded after an overflow, so [bytes] and
    [max_ways] stay exact for a transaction that carries on in software. *)
val touch : t -> addr:int -> bytes:int -> bool

(** Distinct bytes touched (whole lines). *)
val bytes : t -> int

(** Maximum ways any one set needs for this footprint. *)
val max_ways : t -> int

val fits : t -> bool
