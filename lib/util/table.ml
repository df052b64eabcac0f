(** Plain-text table renderer for paper-style tables and figures.

    All experiment drivers print through this module so that the output in
    EXPERIMENTS.md is uniform.  Columns are sized to their widest cell. *)

type t = {
  title : string;
  header : string list;
  mutable rows : string list list; (* stored reversed *)
}

let create ~title ~header = { title; header; rows = [] }

let add_row t row = t.rows <- row :: t.rows

let cell_width rows col =
  List.fold_left
    (fun acc row -> match List.nth_opt row col with Some c -> max acc (String.length c) | None -> acc)
    0 rows

(* The first column is left-aligned, every other one right-aligned. *)
let pad ~left width s =
  let n = width - String.length s in
  if n <= 0 then s else if left then s ^ String.make n ' ' else String.make n ' ' ^ s

let render t =
  let rows = List.rev t.rows in
  let all = t.header :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = List.init ncols (fun c -> cell_width all c) in
  let render_row row =
    let cells =
      List.mapi
        (fun c w ->
          let s = match List.nth_opt row c with Some s -> s | None -> "" in
          pad ~left:(c = 0) w s)
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

let fmt_f ?(digits = 2) v = Printf.sprintf "%.*f" digits v
let fmt_pct ?(digits = 1) v = Printf.sprintf "%.*f%%" digits v
let fmt_x ?(digits = 2) v = Printf.sprintf "%.*fx" digits v
