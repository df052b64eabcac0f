(** Span recorder for the traced run.

    A span is a name, a start and end on the monotonic clock, the span
    that enclosed it, and the op (and op class) it belongs to.  Spans are
    recorded only around calls the benchmark makes into a layer, never
    inside [lib/]; they are kept in memory and written out at exit.  A
    recorder belongs to one domain; the serving workload gives each
    client domain its own and merges them.  When off, [span] is a single
    branch around the call. *)

type span = { id : int; name : string; op : int; cls : int; parent : int; t0 : int64; t1 : int64 }

type t = {
  mutable on : bool;
  mutable spans : span list;
  mutable next : int;
  mutable stack : int list;
  mutable op : int;
  mutable cls : int;
  id_base : int;
}

let create ?(id_base = 0) () =
  { on = false; spans = []; next = 0; stack = []; op = -1; cls = -1; id_base }

let set_op t ~op ~cls =
  t.op <- op;
  t.cls <- cls

let span t name f =
  if not t.on then f ()
  else begin
    let id = t.id_base + t.next in
    t.next <- t.next + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let op = t.op and cls = t.cls in
    let t0 = Host.now_ns () in
    let finish () =
      let t1 = Host.now_ns () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; name; op; cls; parent; t0; t1 } :: t.spans
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let dur_s s = Host.span_s s.t0 s.t1

(** Seconds covered by each span's direct children (children of one span
    run one after another in one domain, so they never overlap). *)
let child_cover spans =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace tbl s.parent
          (dur_s s +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.parent)))
    spans;
  fun s -> Option.value ~default:0.0 (Hashtbl.find_opt tbl s.id)

(** Per class, the median over its ops of each op's total seconds in
    spans named [name]. *)
let class_medians spans name =
  let per_op = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.name = name then
        let _, t = Option.value ~default:(s.cls, 0.0) (Hashtbl.find_opt per_op s.op) in
        Hashtbl.replace per_op s.op (s.cls, t +. dur_s s))
    spans;
  let per_cls = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ (cls, t) ->
      Hashtbl.replace per_cls cls (t :: Option.value ~default:[] (Hashtbl.find_opt per_cls cls)))
    per_op;
  Hashtbl.fold (fun cls l acc -> (cls, Meter.median l) :: acc) per_cls [] |> List.sort compare

(** A layer's time: the geometric mean over classes of [class_medians],
    in microseconds; 0 when there are no such spans. *)
let class_geomean_us spans name =
  match class_medians spans name with
  | [] -> 0.0
  | l -> Nomap_util.Stats.geomean (List.map (fun (_, t) -> Float.max 1e-9 t) l) *. 1e6

(** Per-name totals: span count, total seconds, self seconds (duration
    minus what the span's children cover). *)
let layer_table spans =
  let cover = child_cover spans in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let n, tot, self = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl s.name) in
      let d = dur_s s in
      Hashtbl.replace tbl s.name (n + 1, tot +. d, self +. d -. cover s))
    spans;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl [] |> List.sort compare

(** Smallest share of its duration that a span named [name] has covered
    by its children; 0 when there is no such span. *)
let min_child_share spans name =
  let cover = child_cover spans in
  List.fold_left
    (fun acc s -> if s.name = name then Float.min acc (cover s /. dur_s s) else acc)
    infinity spans
  |> fun v -> if v = infinity then 0.0 else v

let write_json path ~extra spans =
  let base = List.fold_left (fun acc s -> if Int64.compare s.t0 acc < 0 then s.t0 else acc)
      Int64.max_int spans in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"spans\": [\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc "%s{\"id\": %d, \"name\": %S, \"op\": %d, \"class\": %d, \"parent\": %d, \"start_ns\": %Ld, \"end_ns\": %Ld}"
            (if i = 0 then "" else ",\n") s.id s.name s.op s.cls s.parent
            (Int64.sub s.t0 base) (Int64.sub s.t1 base))
        (List.sort (fun a b -> compare a.id b.id) spans);
      Printf.fprintf oc "\n],\n%s}\n" extra)
