(** Conservative parallel discrete-event hub.

    A hub partitions one simulation across [N] engines ("shards"), each
    with its own event queue, clock and pools. Cross-shard traffic
    flows through {!channel}s whose [floor] is the minimum propagation
    delay of the underlying link; the hub advances every shard in
    lockstep windows bounded by the global lookahead (the minimum floor
    over all channels), so no shard can ever observe an event out of
    causal order.

    {b Protocol} (one round): inject buffered boundary messages in the
    canonical [(arrival, sent, channel, sequence)] order; compute
    [tmin], the earliest pending event over all shards; fire due
    coordinator {!at}-controls; then run every engine to the fence
    [min (tmin + lookahead) (next control time)] (exclusive), or to
    [until] when the fence overshoots the horizon. A message sent at
    [s] arrives at [>= s + floor >= tmin + lookahead], strictly beyond
    the fence — injection at the next barrier is always causally safe.

    {b Determinism.} Windows advance over the same global time fence
    regardless of the shard count or execution mode, so a seeded run is
    byte-identical on one shard, N shards, {!Sequential} or
    {!Parallel} — the property the fuzz differential and the CI [cmp]
    job enforce. Boundary messages are injected with
    {!Engine.post_from}, which carries the source-side send instant
    into the destination's [(time, sent, seq)] dispatch key, so an
    injected event ties with local events exactly as a local post at
    that instant would. The residual caveat is a double coincidence —
    a boundary event and an unrelated local event agreeing in both
    arrival and send instant, float-bit exact; the differential
    polices it.

    Controls are not engine events: a hub with [N] shards executes
    exactly the same number of engine events as the same scenario on a
    1-shard hub, which keeps event-count digests comparable.

    {b Failure containment.} Any exception escaping a shard's window —
    a crashing event callback, a {!Task_guard} limit, injected {!chaos}
    — aborts the run cleanly: workers are stopped, buffered boundary
    messages dropped, pooled records reclaimed ({!Engine.reclaim_owned})
    and the hub poisoned; the caller sees a single structured
    {!Lane_failure} naming the shard and barrier round. Because a seeded
    run is byte-identical at any width, the caller can transparently
    rebuild and retry narrower — see {!Degrade}.

    See DESIGN.md §13 "Sharded execution" and §15 "Failure model and
    the degradation ladder". *)

type t
(** A hub: the shards, their channels, and pending controls. *)

exception Shard_error of string
(** Protocol violations: a {!send} below its channel's floor, a control
    livelock, re-entrant {!run}, or a {!run} on a poisoned hub. *)

exception Chaos_crash of { shard : int; round : int }
(** The injected failure raised by a [crash] chaos spec. *)

exception Lane_wedged of { shard : int; round : int; stale : float }
(** A lane stopped heartbeating for longer than the configured grace
    and was abandoned by the watchdog ([stale] is the observed
    heartbeat age), or a [wedge] chaos spec fired on a hub without an
    armed watchdog and degenerated to this synchronous failure
    ([stale = 0.]). *)

exception
  Lane_failure of {
    shard : int;  (** Shard whose window failed (lowest index wins). *)
    round : int;  (** Lifetime barrier round, as {!total_rounds} counts. *)
    wedged : bool;  (** [true] when the origin is {!Lane_wedged}. *)
    origin : exn;  (** The underlying exception. *)
    backtrace : string;  (** Its backtrace; [""] when unavailable. *)
  }
(** The single exception a failed sharded run raises after its clean
    abort. [Engine.Livelock {kind = Budget}] under a caller-supplied
    [max_events] is {e not} wrapped — a global event budget is the
    caller's own limit, not a shard fault. *)

(** {1 Chaos injection}

    Deterministic fault injection for exercising the containment and
    degradation paths end to end: a spec names a shard and the lifetime
    barrier round at which the fault fires. Chaos only fires on hubs
    with more than one shard, so the ladder's final 1-shard rung always
    runs clean. *)

type chaos = {
  crash : (int * int) option;
      (** Raise {!Chaos_crash} in (shard, round)'s window. *)
  wedge : (int * int) option;
      (** Stop (shard, round)'s lane heartbeating until the watchdog
          abandons it (synchronous {!Lane_wedged} when no watchdog is
          armed). *)
}

val no_chaos : chaos

val chaos_of_string : string -> chaos
(** Parse a CLI spec: comma-separated [crash=<shard>:<round>] and/or
    [wedge=<shard>:<round>]. @raise Invalid_argument on malformed
    specs. *)

val chaos_of_env : unit -> chaos
(** Read [PCC_TEST_SHARD_CRASH] / [PCC_TEST_SHARD_WEDGE] (each a
    [<shard>:<round>] pair; unset or empty means none).
    @raise Invalid_argument on malformed values. *)

val set_default_chaos : chaos -> unit
(** Process-wide default applied to hubs created afterwards: an
    explicit CLI override beats the environment. *)

val default_chaos : unit -> chaos
(** The default a fresh hub starts with: {!set_default_chaos}'s value
    when set, else {!chaos_of_env}. *)

val create : ?on_error:Engine.error_policy -> shards:int -> unit -> t
(** [create ~shards ()] builds a hub of [shards] fresh engines, with
    {!default_chaos} applied.
    @raise Invalid_argument if [shards < 1]. *)

val configure :
  ?chaos:chaos ->
  ?lane_deadline:float ->
  ?lane_max_events:int ->
  ?wedge_grace:float ->
  ?sleep:(float -> unit) ->
  t ->
  unit
(** Per-hub resilience settings; only the supplied fields change.
    [lane_deadline] (wall-clock seconds) and [lane_max_events] install
    a {!Task_guard} per execution lane — worker domains always, the
    calling domain only when it has no guard already (a supervisor's
    guard keeps authority). The per-lane event ceiling counts the
    events that lane executes, across all its shards. [wedge_grace]
    and [sleep] arm the out-of-band watchdog for parallel runs: a lane
    whose heartbeat (stamped per barrier window and every few hundred
    events) is staler than [wedge_grace] seconds is abandoned and the
    run aborts with a wedged {!Lane_failure}. [sleep] is injected
    (e.g. [Unix.sleepf]) because this library has no unix dependency;
    the watchdog also needs {!run}'s [clock]. [wedge_grace] must
    comfortably exceed a worst-case 512-event batch — any value above
    milliseconds is safe.
    @raise Invalid_argument on non-positive limits. *)

val poisoned : t -> bool
(** Whether a lane failure aborted this hub. A poisoned hub's shards
    stopped at different windows and cannot be resumed coherently:
    {!run} raises {!Shard_error}; rebuild the simulation instead (the
    degradation ladder does). *)

val shards : t -> int
val engines : t -> Engine.t array

val engine : t -> int -> Engine.t
(** The engine owning shard [i].
    @raise Invalid_argument if [i] is out of range. *)

type 'a channel
(** A unidirectional bounded-lookahead message channel between two
    shards. *)

val channel :
  t ->
  src:int ->
  dst:int ->
  floor:float ->
  inject:(arrival:float -> sent:float -> 'a -> unit) ->
  'a channel
(** [channel t ~src ~dst ~floor ~inject] registers a boundary channel.
    [floor] must be positive: it is this channel's contribution to the
    global lookahead, and the {!send}-side contract is
    [arrival >= now + floor]. [inject] is called on the coordinator at
    a barrier, once per message in canonical order; it must schedule
    the payload into the destination shard's engine at exactly
    [arrival] with send instant [sent] — use {!Engine.post_from}, which
    threads [sent] into the dispatch key so the event sorts as if
    posted locally at the sender's clock (checkout of a pooled event on
    the coordinator is the sanctioned {!Pool} hand-off).
    @raise Invalid_argument on a non-positive floor, out-of-range or
    equal shard indices. *)

val send : 'a channel -> now:float -> arrival:float -> 'a -> unit
(** [send ch ~now ~arrival v] buffers [v] for injection at the next
    barrier. [now] is the sender's current clock, [arrival] the exact
    delivery time computed with the same float expression the
    unsharded path uses ([now +. (delay +. jitter)]) — bit-identical
    arrivals are what make sharded runs byte-identical.
    @raise Shard_error if [arrival < now +. floor]. *)

val channel_src : 'a channel -> int
val channel_dst : 'a channel -> int

val at : t -> time:float -> (unit -> unit) -> unit
(** [at t ~time f] registers a coordinator control: [f] runs between
    windows, after every engine event strictly before [time] and before
    any event at or after it (ties with events at exactly [time]
    resolve control-first, at every shard count). Controls at the same
    time fire in registration order and may register further controls —
    recurring probes re-arm themselves. A control never counts as an
    engine event. Controls later than a {!run}'s [until] stay pending
    for a subsequent run. *)

val lookahead : t -> float
(** The global lookahead: minimum channel floor, [infinity] when no
    channel is registered (windows then bound only by controls and
    [until], i.e. a 1-shard hub degenerates to plain {!Engine.run}). *)

type mode =
  | Sequential
      (** All windows execute on the calling domain, shard 0 first.
          Deterministic, no domain overhead — the default, and what
          fuzzing uses. *)
  | Parallel of int
      (** Windows fan out over up to that many domains (clamped to the
          shard count; values [<= 1] degrade to sequential). Shards are
          dealt round-robin onto lanes; pools are re-owned by their
          lane's domain for the duration of the run and handed back to
          the caller afterwards. Byte-identical to {!Sequential}. A
          traced run (an installed {!Pcc_trace.Collector}) or a
          [max_events] budget forces sequential execution — one trace
          ring, one deterministic budget accounting. *)

val run :
  ?mode:mode ->
  ?max_events:int ->
  ?clock:(unit -> float) ->
  t ->
  until:float ->
  unit
(** Advance every shard to [until] (clocks end exactly there, like
    {!Engine.run}[ ~until]). [max_events] bounds the total events
    across all shards, raising {!Engine.Livelock}[ {kind = Budget}]
    like the monolithic engine. [clock] (e.g. a monotonic wall clock)
    enables the busy/wall fields of {!last_stats}; without it they read
    zero — and, together with {!configure}'s [sleep] and [wedge_grace],
    arms the watchdog on parallel runs.

    A failure inside any shard's window aborts the run cleanly and
    raises {!Lane_failure}; when several shards fail in one window the
    lowest shard index wins — the same failure a sequential run would
    have hit first. Only [Engine.Livelock {kind = Budget}] from the
    caller's own [max_events] budget propagates unwrapped.

    When a {!Task_guard} is active on the calling domain it is charged
    one event and heartbeat-stamped once per round; in parallel mode
    worker-domain events count toward the {e lane} guards installed
    per {!configure}, not the caller's guard.
    @raise Shard_error on re-entrant or post-abort runs. *)

type stats = {
  rounds : int;  (** Barrier rounds executed. *)
  messages : int;  (** Boundary messages injected. *)
  controls_fired : int;
  per_shard_events : int array;  (** Events executed by this run. *)
  per_shard_busy_s : float array;
      (** Wall time inside each shard's windows (zero without [clock]). *)
  wall_s : float;
  domains_used : int;
}

val last_stats : t -> stats option
(** Stats of the most recent {!run}, for bench reporting: barrier
    overhead is [1 - sum busy / (domains * wall)]. *)

val total_rounds : t -> int
(** Barrier rounds executed across every {!run} on this hub — unlike
    {!last_stats}, not reset when a caller drives the simulation in
    interval slices. *)

val total_messages : t -> int
(** Boundary messages injected across every {!run} on this hub. *)

val run_stats :
  ?mode:mode ->
  ?max_events:int ->
  ?clock:(unit -> float) ->
  t ->
  until:float ->
  stats
(** {!run}, returning the stats. *)

val executed : t -> int
(** Total events executed across all shards (lifetime, like
    {!Engine.executed} summed). *)

val pending : t -> int
(** Live queued events across all shards. Boundary messages buffered at
    a mid-run barrier are not included; after {!run} returns none are
    buffered below the horizon. *)
