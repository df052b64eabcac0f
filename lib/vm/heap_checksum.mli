(** Structural checksum of everything reachable from a list of named
    globals.  The single implementation behind both the differential fuzz
    oracle ([Nomap_fuzz.Oracle]) and the execution daemon's response
    checksum ([Nomap_server.Session]): two observers of "what did this
    program do to the heap" that must never drift apart.  Taking names and
    values rather than an instance lets an engine without one (the AST
    interpreter) hash the same way.

    Purely structural: simulated addresses, object ids and slot capacities
    are excluded, because allocation order legitimately differs across
    tiers (aborted transactions roll back stores but not allocations).
    Cycles are cut by tagging back-references. *)

val of_globals : (string * Nomap_runtime.Value.t) list -> string
(** 16-hex-digit FNV-1a (64-bit) digest of the globals, in list order. *)

val checksum : Nomap_interp.Instance.t -> string
(** [of_globals] over the instance's globals, in the program's order. *)
