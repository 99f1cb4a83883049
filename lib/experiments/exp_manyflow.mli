(** Many-flow fan-in stress scenario (not a paper figure).

    Drives a large population of PCC flows — 10k at [scale = 1], 100k at
    [scale = 10] — through one shared bottleneck to prove the simulator
    sustains that concurrency: hundreds of thousands of pending timers
    through the scheduler, pooled packet events on every hop, and a
    deterministic outcome. The rendered table contains only simulation
    state (completions, goodput, queue high-water mark, event count), so
    a fixed seed renders byte-identically on every run. The round fails (for the supervisor to catch)
    if fewer than 90% of flows complete, aggregate goodput exceeds the
    bottleneck capacity, or the peak event-queue depth is implausibly
    small for the flow count. *)

type row = {
  flows : int;
  completed : int;
  goodput_mbps : float;  (** aggregate, over the last completion *)
  mean_fct : float;
  peak_pending : int;  (** high-water mark of queued events *)
  events : int;
}

val topology :
  Pcc_sim.Engine.t ->
  rng:Pcc_sim.Rng.t ->
  n:int ->
  bandwidth:float ->
  rtt:float ->
  Pcc_scenario.Topology.t
(** The fan-in graph itself: [n] sized PCC flows with staggered starts
    and spread RTTs over one bottleneck. Shared with
    [pcc_sim topo --shape fanin-large]. *)

val topology_sharded :
  Pcc_sim.Shard.t ->
  rng:Pcc_sim.Rng.t ->
  n:int ->
  bandwidth:float ->
  rtt:float ->
  Pcc_scenario.Topology.t
(** The same fan-in graph distributed over a hub's shards
    ([pcc_sim topo --shape fanin-large --shards N]). *)

val clustered_topology :
  Pcc_sim.Shard.t ->
  rng:Pcc_sim.Rng.t ->
  clusters:int ->
  n:int ->
  bandwidth:float ->
  rtt:float ->
  Pcc_scenario.Topology.t
(** [clusters] self-contained fan-in dumbbells chained by 1 ms
    inter-cluster links with a few 3-hop flows each — the shape that
    actually spreads over shards ([pcc_sim topo --shape clusters]).
    [n] is the total local-flow population, split evenly. *)

val default_bandwidth : float
val default_rtt : float

val flows_for_scale : float -> int
(** [10_000 * scale], floored at 50. *)

val run :
  ?pool:Runner.t ->
  ?policy:Supervisor.policy ->
  ?scale:float ->
  ?seed:int ->
  ?flows:int ->
  unit ->
  row list
(** [flows] overrides the [scale]-derived population. *)

val table : row list -> Exp_common.table
val print : ?pool:Runner.t -> ?scale:float -> ?seed:int -> unit -> unit

(** {1 Sharded clustered fan-in ("shardflow")}

    Runs the same seeded clustered scenario on a 1-shard and an N-shard
    hub (both {!Pcc_sim.Shard.Sequential}) and asserts the two runs'
    digests — every flow's goodput byte count and completion-time float
    bits, plus the total event count — are identical, then reports the
    N-shard run's balance. The round {b fails} on any divergence, so the
    experiment doubles as a standing determinism check. Runs its two hubs
    back to back on the calling domain; registered with
    [parallel = false] so a runner pool never claims extra slots for
    it. *)

type shard_row = {
  s_shards : int;
  s_populated : int;  (** shards that actually executed events *)
  s_flows : int;
  s_completed : int;
  s_events : int;
  s_balance : float;  (** max/mean per-shard events, 1.0 = perfect *)
  s_identical : bool;  (** 1-shard vs N-shard digests matched *)
}

val shard_flows_for_scale : float -> int
(** [2_000 * scale], floored at 64. *)

val run_sharded :
  ?pool:Runner.t ->
  ?policy:Supervisor.policy ->
  ?scale:float ->
  ?seed:int ->
  ?shards:int ->
  unit ->
  shard_row list
(** [shards] defaults to 4 (compared against 1). *)

val shard_table : shard_row list -> Exp_common.table
