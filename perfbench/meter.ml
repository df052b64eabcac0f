(** A series of timed ops with interleaved canary samples (see [Host]).

    Ops are grouped into classes (a kernel, or a program and cache
    outcome).  A canary sample is taken before the first op and again
    whenever [canary_every_s] of op time has accumulated, so each op sits
    in a segment between two samples. *)

module Vec = Nomap_util.Vec
module Stats = Nomap_util.Stats

type op = { cls : int; raw : float; seg : int }

type t = { canary : float Vec.t; ops : op Vec.t; mutable since : float }

(* A canary sample costs about a tenth of this. *)
let canary_every_s = 0.01

let create () =
  { canary = Vec.create ~dummy:0.0; ops = Vec.create ~dummy:{ cls = 0; raw = 0.0; seg = 0 };
    since = 0.0 }

let sample m =
  ignore (Vec.push m.canary (Host.canary ()));
  m.since <- 0.0

(** Record an op timed elsewhere (the serving workload's client domains). *)
let record m op = ignore (Vec.push m.ops op)

(** Time [f ()] as one op of class [cls].  An exception propagates and
    records nothing: the caller counts it as a failed op. *)
let time m ~cls f =
  if Vec.length m.canary = 0 || m.since >= canary_every_s then sample m;
  let t0 = Host.now_ns () in
  let r = f () in
  let d = Host.span_s t0 (Host.now_ns ()) in
  ignore (Vec.push m.ops { cls; raw = d; seg = Vec.length m.canary - 1 });
  m.since <- m.since +. d;
  r

(** Take the closing canary sample, so the last segment has two sides. *)
let close m = sample m

let factor m seg =
  let n = Vec.length m.canary in
  let c i = Vec.get m.canary (min i (n - 1)) in
  Host.factor (c seg) (c (seg + 1))

let value ~corrected m op = if corrected then op.raw *. factor m op.seg else op.raw
let values ~corrected m = List.map (value ~corrected m) (Vec.to_list m.ops)
let count m = Vec.length m.ops
let total ~corrected m = List.fold_left ( +. ) 0.0 (values ~corrected m)
let median l = Stats.percentile l 50.0

(** Per-class medians, in class order. *)
let class_medians ~corrected m =
  let tbl = Hashtbl.create 64 in
  Vec.iter
    (fun op ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl op.cls) in
      Hashtbl.replace tbl op.cls (value ~corrected m op :: prev))
    m.ops;
  Hashtbl.fold (fun cls l acc -> (cls, median l) :: acc) tbl []
  |> List.sort compare

(** Geometric mean over classes of each class's median op time. *)
let class_geomean ~corrected m =
  match class_medians ~corrected m with
  | [] -> nan
  | l -> Stats.geomean (List.map snd l)

(** Time of one op of every class: the sum of the class medians.  With
    a few dozen classes and a handful of samples of the slowest ones per
    run, this is far steadier than the median of whole passes. *)
let pass_time ~corrected m = List.fold_left (fun acc (_, t) -> acc +. t) 0.0 (class_medians ~corrected m)

let percentile ~corrected m p =
  match values ~corrected m with [] -> nan | l -> Stats.percentile l p

(** Median and interquartile spread (as a share of the median) of the
    raw canary samples. *)
let canary_stats m =
  match Vec.to_list m.canary with
  | [] -> (nan, nan)
  | l ->
    let med = median l in
    (med, (Stats.percentile l 75.0 -. Stats.percentile l 25.0) /. med)
