(** fuzz.exe: cross-tier differential fuzzing CLI.

    Generates seeded random MiniJS programs and runs each through every
    tier/architecture configuration, requiring the same observable result
    and heap checksum as the reference interpreter.  Divergences are
    shrunk to minimal reproducers and printed; the exit code is the number
    of diverging cases (capped at 125), so CI can gate on it.  Fuel-skipped
    seeds are retried once with boosted fuel and reported in the summary;
    with --max-skips N, more than N remaining skips exits 123.

    Besides the tier matrix, each case (unless --agents 0/1) replays the
    program on N agents over one shared segment twice under the same
    seeded schedule: the two runs must be bit-identical (results, heap
    checksums, segment image, conflict count) — the multi-agent
    determinism axis.

    Usage:
      fuzz.exe --seed 42 --iters 500                # the acceptance run
      fuzz.exe --seed 42 --iters 200 --sabotage     # self-test: must fail
      fuzz.exe --tier-pair ftl:NoMap-RTM --iters 50 # narrow the matrix
      fuzz.exe --tier-pair ftl:Base:threaded --iters 50  # one engine only
      fuzz.exe --agents 4 --iters 100               # wider agents axis
      fuzz.exe --emit seed.js --seed 7 --iters 1    # dump a program *)

module Fuzz = Nomap_fuzz.Fuzz
module Gen = Nomap_fuzz.Gen
module Oracle = Nomap_fuzz.Oracle
module Vm = Nomap_vm.Vm
module Config = Nomap_nomap.Config
module Engine = Nomap_machine.Engine

open Cmdliner

let parse_tier = function
  | "interp" -> Ok Vm.Cap_interp
  | "baseline" -> Ok Vm.Cap_baseline
  | "dfg" -> Ok Vm.Cap_dfg
  | "ftl" -> Ok Vm.Cap_ftl
  | t -> Error ("unknown tier " ^ t ^ " (interp|baseline|dfg|ftl)")

(* Architecture names are matched case-insensitively with '-' and '_'
   interchangeable, so the spelled form "NoMap-RTM" resolves to NoMap_RTM. *)
let parse_arch s =
  let norm s = String.lowercase_ascii (String.map (function '-' -> '_' | c -> c) s) in
  match List.find_opt (fun a -> norm (Config.name a) = norm s) Config.all with
  | Some a -> Ok a
  | None ->
    Error
      ("unknown arch " ^ s ^ " (one of "
      ^ String.concat ", " (List.map Config.name Config.all)
      ^ ")")

let parse_engine e =
  match Engine.of_string e with
  | Some g -> Ok g
  | None ->
    Error ("unknown engine " ^ e ^ " (" ^ String.concat "|" (List.map Engine.name Engine.all) ^ ")")

(* "ftl:NoMap-RTM" or "dfg:Base,ftl:Base:decoded".  Each token is
   TIER:ARCH[:ENGINE]; without an engine the optimizing tiers expand to
   both engines so the cross-engine counter comparison applies. *)
let parse_cfgs s =
  let parse_one tok =
    match String.split_on_char ':' tok with
    | [ tier; arch ] -> (
      match (parse_tier (String.lowercase_ascii tier), parse_arch arch) with
      | Ok t, Ok a ->
        Ok
          (Oracle.with_engine_partners
             [ { Oracle.tier = t; arch = a; engine = Engine.Decoded } ])
      | (Error e, _ | _, Error e) -> Error e)
    | [ tier; arch; engine ] -> (
      match
        ( parse_tier (String.lowercase_ascii tier),
          parse_arch arch,
          parse_engine (String.lowercase_ascii engine) )
      with
      | Ok t, Ok a, Ok g -> Ok [ { Oracle.tier = t; arch = a; engine = g } ]
      | (Error e, _, _ | _, Error e, _ | _, _, Error e) -> Error e)
    | _ -> Error ("bad config " ^ tok ^ " (expected TIER:ARCH[:ENGINE])")
  in
  let rec go acc = function
    | [] -> Ok acc
    | tok :: rest -> ( match parse_one tok with Ok c -> go (acc @ c) rest | Error e -> Error e)
  in
  Result.map (List.sort_uniq compare) (go [] (String.split_on_char ',' s))

let cfg_conv =
  let parse s = match parse_cfgs s with Ok c -> `Ok c | Error e -> `Error e in
  let print fmt cs =
    Format.pp_print_string fmt (String.concat "," (List.map Oracle.cfg_name cs))
  in
  (parse, print)

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed.")

let iters =
  Arg.(value & opt int 200 & info [ "iters" ] ~docv:"N" ~doc:"Number of programs to generate.")

let jobs =
  Arg.(
    value
    & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Domains to run cases on (default 1).")

let shrink =
  Arg.(
    value & opt bool true
    & info [ "shrink" ] ~docv:"BOOL" ~doc:"Shrink diverging programs to minimal reproducers.")

let tier_pair =
  Arg.(
    value
    & opt (some cfg_conv) None
    & info [ "tier-pair"; "cfgs" ] ~docv:"TIER:ARCH[:ENGINE][,...]"
        ~doc:
          "Restrict the matrix to these configurations (each checked against the reference \
           interpreter).  Tiers: interp, baseline, dfg, ftl.  Archs: Base, NoMap_S, NoMap_B, \
           NoMap, NoMap_BC, NoMap_RTM, NoMap_RTM_STM ('-' and '_' interchangeable).  Engines: decoded \
           (the exact mode), threaded (fused); omitting the engine runs dfg/ftl configurations in \
           $(b,both) modes and additionally requires their full counter tables to match \
           bit-for-bit.  Unknown tier, arch or engine names are rejected with the valid \
           alternatives listed.")

let sabotage =
  Arg.(
    value & flag
    & info [ "sabotage" ]
        ~doc:
          "Self-test: swap subtraction operands in FTL-compiled code.  The run $(b,must) report \
           divergences; use it to prove the oracle catches injected miscompiles.")

let emit =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit" ] ~docv:"FILE"
        ~doc:"Write the first generated program's source to FILE and exit (corpus pinning).")

let agents =
  Arg.(
    value
    & opt int 2
    & info [ "agents" ] ~docv:"N"
        ~doc:
          "Multi-agent determinism axis: run each program on N agents over a shared segment \
           twice under the same seeded schedule and require bit-identical observations.  0 \
           or 1 disables the axis.")

let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only print the final summary.")

let max_skips =
  Arg.(
    value
    & opt int max_int
    & info [ "max-skips" ] ~docv:"N"
        ~doc:
          "Fail (exit 123) when more than N seeds remain skipped after the boosted-fuel \
           retry.  Skips shrink oracle coverage, so CI pins this; the default tolerates \
           any number.")

let main seed iters jobs shrink cfgs sabotage emit quiet max_skips agents =
  match emit with
  | Some file ->
    let prog = Gen.program_of_seed ~seed:(Fuzz.case_seed ~seed 0) in
    let oc = open_out file in
    output_string oc (Gen.to_source prog);
    close_out oc;
    Printf.printf "wrote %s (%d nodes)\n" file (Nomap_fuzz.Shrink.size prog);
    0
  | None ->
    let ftl_mutate = if sabotage then Some Fuzz.sabotage_swap_sub else None in
    let t0 = Nomap_util.Clock.now_s () in
    let on_case i outcome =
      if not quiet then
        match outcome with
        | `Agree -> ()
        | `Skip (seed, msg) -> Printf.printf "case %d (seed %d): skipped: %s\n%!" i seed msg
        | `Diverge f -> Printf.printf "case %d: %s\n%!" i (Fuzz.failure_to_string f)
    in
    let s = Fuzz.run ?cfgs ?ftl_mutate ~agents ~jobs ~shrink ~on_case ~seed ~iters () in
    Printf.printf "%s [%.1fs]\n" (Fuzz.summary_to_string s) (Nomap_util.Clock.now_s () -. t0);
    let failures = List.length s.Fuzz.failures in
    if failures > 0 then min 125 failures
    else if s.Fuzz.skipped > max_skips then begin
      Printf.printf "FAIL: %d seeds still skipped after retry (max-skips %d)\n" s.Fuzz.skipped
        max_skips;
      123
    end
    else 0

let cmd =
  let doc = "Differential fuzzer: random MiniJS programs through every tier and architecture" in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(
      const main $ seed $ iters $ jobs $ shrink $ tier_pair $ sabotage $ emit $ quiet
      $ max_skips $ agents)

let () = exit (Cmd.eval' cmd)
