(* See hot.mli for the audit contract. *)

let checked =
  match Sys.getenv_opt "NOMAP_CHECKED_HOT" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let[@inline] get a i = if checked then Array.get a i else Array.unsafe_get a i
let[@inline] set a i v = if checked then Array.set a i v else Array.unsafe_set a i v

(* Monomorphic int-array accessors: at a known int element type a read is
   one load and a write one store, with no float-tag test and no write
   barrier. *)
let[@inline] iget (a : int array) i = if checked then Array.get a i else Array.unsafe_get a i
let[@inline] iset (a : int array) i (v : int) =
  if checked then Array.set a i v else Array.unsafe_set a i v
