(** Plain-text table renderer for paper-style tables and figures.

    All experiment drivers print through this module so that the output in
    EXPERIMENTS.md is uniform.  Columns are sized to their widest cell. *)

type align = Left | Right

type t = {
  title : string;
  header : string list;
  mutable rows : string list list; (* stored reversed *)
  aligns : align list;
}

let create ~title ~header ?aligns () =
  let aligns =
    match aligns with
    | Some a -> a
    | None -> List.mapi (fun i _ -> if i = 0 then Left else Right) header
  in
  { title; header; rows = []; aligns }

let add_row t row = t.rows <- row :: t.rows

let cell_width rows col =
  List.fold_left
    (fun acc row -> match List.nth_opt row col with Some c -> max acc (String.length c) | None -> acc)
    0 rows

let pad align width s =
  let n = width - String.length s in
  if n <= 0 then s
  else
    match align with
    | Left -> s ^ String.make n ' '
    | Right -> String.make n ' ' ^ s

let render t =
  let rows = List.rev t.rows in
  let all = t.header :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = List.init ncols (fun c -> cell_width all c) in
  let aligns =
    List.init ncols (fun c -> match List.nth_opt t.aligns c with Some a -> a | None -> Right)
  in
  let render_row row =
    let cells =
      List.mapi
        (fun c w ->
          let s = match List.nth_opt row c with Some s -> s | None -> "" in
          pad (List.nth aligns c) w s)
        widths
    in
    "| " ^ String.concat " | " cells ^ " |"
  in
  let sep =
    "|" ^ String.concat "|" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "|"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (render_row t.header ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun r -> Buffer.add_string buf (render_row r ^ "\n")) rows;
  Buffer.contents buf

let print t = print_string (render t)

(** Render a histogram-style figure: one labelled row per benchmark with
    stacked segment values, as textual stand-in for the paper's bar charts. *)
let figure ~title ~header rows =
  let t = create ~title ~header () in
  List.iter (fun r -> add_row t r) rows;
  render t

let fmt_f ?(digits = 2) v = Printf.sprintf "%.*f" digits v
let fmt_pct ?(digits = 1) v = Printf.sprintf "%.*f%%" digits v
let fmt_x ?(digits = 2) v = Printf.sprintf "%.*fx" digits v
