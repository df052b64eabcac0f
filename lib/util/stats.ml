(** Small statistics helpers used by the experiment harnesses. *)

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(** Geometric mean; requires strictly positive inputs. *)
let geomean = function
  | [] -> 0.0
  | xs ->
    let logsum = List.fold_left (fun acc x -> acc +. log x) 0.0 xs in
    exp (logsum /. float_of_int (List.length xs))

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let var = mean (List.map (fun x -> (x -. m) ** 2.0) xs) in
    sqrt var

(** Linear interpolation between closest ranks (the numpy/R-7 definition):
    rank = p/100 * (n-1), and fractional ranks blend the two neighbours. *)
let percentile xs p =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let arr = Array.of_list sorted in
    let n = Array.length arr in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = max 0 (min (n - 1) (int_of_float (Float.floor rank))) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    (arr.(lo) *. (1.0 -. frac)) +. (arr.(hi) *. frac)

let percent_reduction ~base x = (1.0 -. (x /. base)) *. 100.0
