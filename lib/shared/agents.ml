(** The multi-agent runtime: N VMs, one OCaml Domain each, against one
    shared segment (DESIGN.md §16).

    Each agent gets its own full VM — private heap, profile, counters,
    tier ladder — created with [Vm.create ~shared:agent], so the only
    communication channel is the segment.  Private execution runs in true
    parallel; shared operations are serialized deterministically by the
    registry's [Interleave] scheduler, so a run's outcome is a pure
    function of (programs, seeds, policy).

    An agent that dies (runtime error, out of fuel) is torn down safely:
    its transaction state is cleaned up and its scheduler slot retired, so
    the surviving agents keep their deterministic schedule instead of
    deadlocking on a turn nobody will consume. *)

module Value = Nomap_runtime.Value
module Opcode = Nomap_bytecode.Opcode
module Vm = Nomap_vm.Vm
module Segment = Nomap_shared.Segment
module Interleave = Nomap_shared.Interleave
module Agent = Nomap_shared.Agent

type outcome = {
  result : (Value.t, string) Result.t;
  vm : Vm.t option;  (** joined and quiescent; [None] if VM creation failed *)
}

type run_result = {
  outcomes : outcome array;
  segment_checksum : int64;
  segment_data : int array;  (** snapshot of the segment after the run *)
  conflicts : int;  (** registry-wide [Conflict] aborts *)
}

(** Run [programs.(i)] on agent [i] (all domains are joined before this
    returns).  Per-agent heaps get distinct PRNG seeds ([seed + i]) so
    Math.random streams differ; everything else about the run is
    deterministic under the scheduler policy. *)
let run ?(policy = Interleave.Seeded 0) ?(segment_size = 64) ?thresholds
    ?(fuel = max_int) ?engine ?(seed = 42) ~config ~tier_cap
    (programs : Opcode.program array) =
  let n = Array.length programs in
  if n = 0 then invalid_arg "Agents.run: no programs";
  let segment = Segment.create ~size:segment_size () in
  let reg = Agent.create_registry ~policy ~segment ~n () in
  let body i () =
    let ag = Agent.agent reg i in
    let result =
      match
        Vm.create ~seed:(seed + i) ~fuel ?thresholds ?engine ~shared:ag
          ~config ~tier_cap programs.(i)
      with
      | vm ->
        let r = try Ok (Vm.run_main vm) with e -> Error (Printexc.to_string e) in
        { result = r; vm = Some vm }
      | exception e -> { result = Error (Printexc.to_string e); vm = None }
    in
    (* A VM that died mid-transaction still holds published footprint lines;
       drop them, then retire the scheduler slot — never letting an agent
       exit without [finish] is what keeps the survivors deadlock-free. *)
    Agent.tx_abort ag;
    Agent.finish ag;
    result
  in
  let domains = Array.init n (fun i -> Domain.spawn (body i)) in
  let outcomes = Array.map Domain.join domains in
  {
    outcomes;
    segment_checksum = Segment.checksum segment;
    segment_data = Array.init (Segment.length segment) (Segment.get segment);
    conflicts = Agent.conflicts reg;
  }
