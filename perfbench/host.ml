(** Host clock, the drift canary, and process memory.

    This host's speed drifts by more than a tenth between runs, so every
    time metric is divided by a canary: fixed work in the benchmark's own
    code, sampled in the timing thread between ops.  An op's time is
    divided by the mean of the canary samples on either side of it and
    multiplied by [nominal_canary_s], so corrected metrics keep their
    units.  The nominal value is a fixed constant (about this canary's
    time on a 2-vCPU x86-64 container); it only sets the scale and must
    never change between two runs that are compared.

    The canary is two pieces of work, summed: a bundle of stdlib work
    that allocates (sorting a fixed list, formatting and hashing string
    keys into a [Hashtbl], looking them up) and a write stream over a
    fixed 2 MB buffer, this host's L2 per core.  An integer-ALU loop was
    tried first: it tracks clock-speed drift but misses the host's slow
    phases, which last seconds to whole runs and in which this VM ran up
    to 1.6x slower while the ALU loop, pointer chases through L2- and
    DRAM-sized buffers and an indirect-call loop did not move.
    Allocation and stores do slow down with the VM in those phases. *)

let now_ns () = Monotonic_clock.now ()
let span_s t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9
let nominal_canary_s = 1e-3

let keys = Array.init 800 (fun i -> (i * 7919) mod 823)

let[@inline never] stdlib_work () =
  let sorted = List.sort compare (Array.to_list keys) in
  let h = Hashtbl.create 64 in
  List.iteri (fun i v -> Hashtbl.replace h (Printf.sprintf "k%d_%d" v i) i) sorted;
  let acc = ref 0 in
  Array.iteri
    (fun i v -> acc := !acc + Option.value ~default:1 (Hashtbl.find_opt h (Printf.sprintf "k%d_%d" v i)))
    keys;
  !acc

let write_buf = Array.make (2 * 1024 * 1024 / 8) 0

let[@inline never] write_stream r =
  Array.fill write_buf 0 (Array.length write_buf) r;
  write_buf.(r land 1023)

let sink = ref 0

(** One canary sample, in seconds. *)
let canary () =
  let t0 = now_ns () in
  sink := !sink lxor stdlib_work () lxor write_stream !sink;
  span_s t0 (now_ns ())

(** Correction factor for an op between canary samples [a] and [b]. *)
let factor a b = nominal_canary_s /. ((a +. b) /. 2.0)

(** Peak resident set size in MB ([VmHWM]); falls back to the OCaml
    heap's high-water mark where /proc is unavailable. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                Some (float_of_int kb /. 1024.0))
          | Some _ -> scan ()
        in
        scan ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
