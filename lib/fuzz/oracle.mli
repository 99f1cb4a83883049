(** The oracle suite: what makes a generated scenario a {e test}.

    A scenario run has no hand-written expected output, so correctness is
    judged by properties that must hold for {e every} valid scenario:

    {b Semantic invariants} (checked on a single run)
    - the runtime {!Pcc_scenario.Invariant} checker's sweeps: per-link
      packet conservation, queue occupancy within the discipline's
      advertised capacity, clock monotonicity, delivered bytes bounded by
      the capacity integral, per-flow goodput monotonicity;
    - end-to-end byte conservation: no receiver accepts more payload than
      its sender transmitted; cumulative acks never exceed transmission;
    - sized transfers never deliver more than their size, and a recorded
      flow-completion time lies in [(0, duration]];
    - sender rate estimates and smoothed RTTs stay finite and
      non-negative;
    - the engine terminates within its event budget (no livelock) and
      its clock ends at [duration].

    {b Differential oracles} (two executions that must agree bit-for-bit)
    - same-seed determinism: two runs of the same scenario value produce
      identical digests (per-flow byte/packet counters, srtt/rate bit
      patterns, event counts);
    - serialization: [of_string (to_string s)] is structurally equal to
      [s] and runs to an identical digest;
    - wrapper equivalence: a scenario expressible through the flat
      {!Pcc_scenario.Path} (single dumbbell link) or
      {!Pcc_scenario.Multihop} (droptail chain) wrappers must run
      bit-identically through them;
    - supervised execution: running the scenario as a
      {!Pcc_experiments.Supervisor} task at [jobs = 1] and [jobs = 2]
      yields identical digests;
    - checkpoint transport: a digest written through
      {!Pcc_experiments.Checkpoint} loads back verbatim;
    - sharded execution: rebuilding the scenario on a 1-shard and an
      N-shard {!Pcc_sim.Shard} hub produces bit-identical digests (hub
      runs attach no invariant checker, so this compares hub-vs-hub and
      polices the conservative-parallel protocol itself);
    - chaos ladder: an N-shard hub run with an injected deterministic
      lane crash must complete via the {!Pcc_sim.Degrade} ladder with a
      digest bit-identical to a clean 1-shard run — degraded results
      are trustworthy results.

    The digest deliberately includes float bit patterns ([%h]) so "close
    enough" drift counts as a failure. *)

type failure = { oracle : string; detail : string }
(** [oracle] names the property that failed (e.g. ["invariant:occupancy"],
    ["determinism"], ["wrapper-path"]); the shrinker preserves it while
    minimizing. *)

type stats = { events : int; digest : string }

val digest : Pcc_sim.Engine.t -> Pcc_scenario.Topology.t -> string
(** The exact-match run summary the differential oracles compare. *)

val run_once :
  Pcc_scenario.Scenario.t -> (stats, failure) result
(** Build and run the scenario once under the invariant checker and the
    semantic sweeps. Never raises: build errors, livelocks and event
    crashes come back as failures. *)

val run_hub :
  shards:int -> Pcc_scenario.Scenario.t -> (stats, failure) result
(** Build and run the scenario on a fresh [shards]-shard hub
    ({!Pcc_scenario.Scenario.build_sharded}) with no invariant checker
    attached. Never raises: build rejections ("shard-build"), livelocks
    ("shard-livelock") and event crashes ("shard-crash") come back as
    failures. The digest's event count is the hub-wide
    {!Pcc_sim.Shard.executed}. *)

val shard_check :
  shards:int -> Pcc_scenario.Scenario.t -> failure option
(** The sharded differential: run the scenario on a 1-shard hub and a
    [shards]-shard hub and require bit-identical digests (oracle
    ["shard-differential"]). Returns [None] without running anything when
    [shards < 2] or the scenario is not
    {!Pcc_scenario.Scenario.shard_applicable} (link dynamics mutate cut
    delays mid-run, which would invalidate the partition's lookahead). *)

val chaos_ladder_check :
  shards:int -> Pcc_scenario.Scenario.t -> failure option
(** The chaos-ladder differential (oracle ["chaos-ladder"]): inject a
    crash on shard 1 at barrier round 2 into the [shards]-shard hub run
    and require {!Pcc_sim.Degrade.run} to walk the ladder down to the
    chaos-free sequential rung with a digest bit-identical to a clean
    1-shard run. Vacuously passes when the scenario quiesces before the
    crash round; applicability gating as {!shard_check}. *)

val test :
  ?synth:(Pcc_scenario.Scenario.t -> string option) ->
  ?deep:bool ->
  ?shard:bool ->
  ?chaos:bool ->
  ?shards:int ->
  Pcc_scenario.Scenario.t ->
  failure option
(** Run the full oracle suite; [None] means every oracle passed. [synth]
    is a synthetic-failure hook (the fuzzer wires [PCC_FUZZ_SYNTH]
    through it): returning [Some detail] yields an ["synthetic"] failure
    — how CI exercises the shrink-and-repro pipeline without a real bug.
    [deep] (default [true]) additionally runs the supervisor jobs-1/2
    and checkpoint differentials, which spawn domains and touch the
    filesystem; the fuzz loop only enables it on a deterministic subset
    of runs. [shard] (default [false]) additionally runs
    {!shard_check} at [shards] (default 4); the fuzz loop enables it
    every [shard_every]-th run. [chaos] (default [false]) additionally
    runs {!chaos_ladder_check} at the same width; the fuzz loop enables
    it every [chaos_every]-th run. *)
