(** Backward liveness analysis over bytecode.

    The optimizing tiers need, for every potential deoptimization point, the
    set of bytecode registers the Baseline tier will read when execution
    resumes there — that set is exactly what a Stack Map Entry must describe
    (paper §II-B).  We compute classic live-in sets per bytecode index with
    an iterate-to-fixpoint dataflow over bitsets: register [r] is bit
    [r mod Sys.int_size] of word [r / Sys.int_size] of its pc's words. *)

type t = {
  nregs : int;
  words : int;  (** words per pc *)
  live_in : int array;  (** pc [p]'s set in [live_in.(p * words) ..] *)
}

let bit r = 1 lsl (r mod Sys.int_size)

let compute (f : Opcode.func) : t =
  let n = Array.length f.code in
  let nregs = f.nregs in
  let words = (nregs + Sys.int_size - 1) / Sys.int_size in
  (* Each op's uses (gen), def (kill) and in-range successors, once. *)
  let gen = Array.make (n * words) 0 and kill = Array.make (n * words) 0 in
  let add set pc r =
    let i = (pc * words) + (r / Sys.int_size) in
    set.(i) <- set.(i) lor bit r
  in
  let succs = Array.make n [] in
  Array.iteri
    (fun pc op ->
      List.iter (add gen pc) (Opcode.uses op);
      Option.iter (add kill pc) (Opcode.def op);
      succs.(pc) <- List.filter (fun s -> s < n) (Opcode.successors op pc))
    f.code;
  let live_in = Array.make (n * words) 0 in
  let rec out w acc = function
    | [] -> acc
    | s :: rest -> out w (acc lor live_in.((s * words) + w)) rest
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for pc = n - 1 downto 0 do
      for w = 0 to words - 1 do
        let i = (pc * words) + w in
        let in_ = gen.(i) lor (out w 0 succs.(pc) land lnot kill.(i)) in
        if in_ <> live_in.(i) then begin
          live_in.(i) <- in_;
          changed := true
        end
      done
    done
  done;
  { nregs; words; live_in }

(** [(r, f r)] for each register [r] live at [pc], in ascending order of
    [r], calling [f] in that order. *)
let map_live t pc f =
  let base = pc * t.words in
  let rec go r =
    if r >= t.nregs then []
    else if t.live_in.(base + (r / Sys.int_size)) land bit r <> 0 then begin
      let x = f r in
      (r, x) :: go (r + 1)
    end
    else go (r + 1)
  in
  go 0

(** Live registers at [pc], as a sorted list. *)
let live_at t pc = List.map fst (map_live t pc Fun.id)
