(** The repo's one host clock: monotonic seconds for every latency,
    deadline and wall-time measurement (nomapd's queue waits, the client's
    retry window, loadgen, the bench and experiment drivers, the fuzzer's
    elapsed time).

    Wall-clock time is moved by NTP slews and steps, so an interval
    measured against it can be negative or wildly inflated.  The one
    wall-clock reading is nomapd's human-facing [uptime_s] STATS line.  This is the [clock_gettime(CLOCK_MONOTONIC)] stub that
    perfbench samples too (DESIGN.md §12). *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9
