(** Audited unchecked array accessors for the execution-engine hot loops.

    Every index that reaches [get]/[set] must be valid *by construction*,
    not by runtime test: SSA value ids are < [Decode.t.nvalues] (the value
    array is allocated to exactly that size), block ids come from verified
    terminators, phi-copy indices are bounded by the scratch allocation,
    and global slots are resolved at compile time.  Call sites outside
    those proofs must keep using plain [Array.get].

    Setting [NOMAP_CHECKED_HOT=1] in the environment re-enables bounds
    checking on every accessor (the debug build switch): any out-of-range
    index then raises [Invalid_argument] at the faulty access instead of
    corrupting memory, at a few percent cost in the hot loops. *)

val checked : bool
(** Whether [NOMAP_CHECKED_HOT] re-enabled bounds checking. *)

val get : 'a array -> int -> 'a
val set : 'a array -> int -> 'a -> unit

(** Monomorphic int-array accessors: no float-tag test and no write
    barrier.  Same audit contract as [get]/[set]. *)
val iget : int array -> int -> int

val iset : int array -> int -> int -> unit
