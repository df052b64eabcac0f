(** Execution-engine mode selection.

    DFG/FTL code runs on one engine, [Threaded], which compiles the same
    pre-decoded LIR against the same [Machine] substrate in one of two
    modes.  The modes are required to produce bit-identical results, heap
    contents and [Counters.t] — the fuzzer's engine axis and the
    engine-equivalence test suite enforce it.

    - [Decoded]: the exact mode — every instruction a [solo] closure that
      charges itself, every phi edge staged; the reference.
    - [Threaded]: the fused mode — straight-line runs fused into
      deferred-accounting superinstructions; the default. *)

type kind = Decoded | Threaded

let all = [ Decoded; Threaded ]
let default = Threaded
let name = function Decoded -> "decoded" | Threaded -> "threaded"

let of_string = function
  | "decoded" -> Some Decoded
  | "threaded" -> Some Threaded
  | _ -> None
