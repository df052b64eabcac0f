(** What one workload run hands back to [Main]: op counts, metrics, the
    human-readable lines printed above the result, and the traced run's
    extra JSON members for the trace file. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable e2e : (string * float) list;
  mutable layers : (string * float) list;
  mutable lines : string list;  (** in print order *)
  mutable trace_extra : (string * string) list;  (** JSON member name, raw JSON value *)
}

let create () =
  { attempted = 0; failed = 0; e2e = []; layers = []; lines = []; trace_extra = [] }

let e2e r name v = r.e2e <- (name, v) :: r.e2e
let layer r name v = r.layers <- (name, v) :: r.layers
let line r fmt = Printf.ksprintf (fun s -> r.lines <- r.lines @ [ s ]) fmt

(** Run [f], counting it as one attempted op and a failed one when it
    returns [false] (a wrong output) or raises. *)
let check r f =
  r.attempted <- r.attempted + 1;
  match f () with
  | true -> ()
  | false -> r.failed <- r.failed + 1
  | exception e ->
    r.failed <- r.failed + 1;
    prerr_endline ("perfbench: op failed: " ^ Printexc.to_string e)

(** Set-up time: the set-up runs [setup_reps] times, each step of it
    timed as an op between canary samples; returns the medians of the
    corrected and the raw totals.  [f rep meter] runs one set-up and must
    time its steps through [meter].

    Each set-up, and the measuring after the last one, starts from a
    fully collected heap: otherwise the major GC spends the first seconds
    of the measurement collecting the earlier set-ups' garbage, which
    made whole runs up to 1.6x slower at random. *)
let setup_reps = 3

let time_setup f =
  let runs =
    List.init setup_reps (fun rep ->
        Gc.full_major ();
        let m = Meter.create () in
        f rep m;
        Meter.close m;
        (Meter.total ~corrected:true m, Meter.total ~corrected:false m))
  in
  Gc.full_major ();
  (Meter.median (List.map fst runs), Meter.median (List.map snd runs))

(** The wall-clock deadline of a measuring phase of [seconds]. *)
let deadline seconds = Int64.add (Host.now_ns ()) (Int64.of_float (seconds *. 1e9))
let before d = Int64.compare (Host.now_ns ()) d < 0
