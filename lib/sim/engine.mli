(** Discrete-event simulation engine.

    An engine owns a simulated clock and an event queue. Components schedule
    closures at absolute or relative times; {!run} executes them in
    timestamp order, advancing the clock. All simulator state changes happen
    inside event callbacks, so a single engine is single-threaded and fully
    deterministic.

    The engine is hardened against two failure modes of event-driven code:

    - {b Raising callbacks.} An event callback that raises would otherwise
      unwind {!run} mid-step with no indication of {e which} event failed.
      Dispatch is exception-safe: the offending exception is wrapped in
      {!Event_error} together with the event's scheduled time, and the
      engine remains steppable (the clock has advanced, the event is
      consumed, the rest of the queue is intact). Under the {!Collect}
      policy errors are recorded in {!errors} and execution continues.
    - {b Livelock.} A zero-delay event that (transitively) reschedules
      itself at the current instant would spin {!run} forever without
      advancing the clock. A watchdog counts events executed without the
      clock moving and raises {!Livelock} once the stall budget is
      exceeded, turning a hang into a diagnosable error. [run ~max_events]
      additionally bounds the total number of events one call may execute.

    When a {!Task_guard} is installed in the running domain, dispatch
    additionally reports each event to it, so supervised tasks get
    wall-clock deadlines and cross-engine event ceilings delivered as
    exceptions from inside {!run} (see {!Task_guard}). *)

type t
(** A simulation engine. *)

type timer
(** A cancellable handle on a scheduled event. *)

(** The queue is a hierarchical timing wheel ({!Timing_wheel}): O(1)
    schedule and near-O(1) dispatch at millions of pending events. It
    dispatches in the exact [(time, sent, sequence)] order, where [sent]
    is the engine clock at the moment the event was pushed. For events
    posted by this engine the extra component is inert — posts happen
    in clock order, so ties break in scheduling order exactly as under
    a plain [(time, seq)] key — but it lets {!post_from} interleave a
    cross-engine boundary event at its true source-side posting instant
    (see {!Shard}). *)

type error_policy =
  | Raise  (** Wrap the exception in {!Event_error} and re-raise (default). *)
  | Collect
      (** Record [(time, exn)] in {!errors} and keep executing events. *)

type livelock_kind =
  | Stall  (** The stall budget was exceeded at one simulated instant. *)
  | Budget  (** [run ~max_events] executed its full event budget. *)

exception Event_error of { time : float; exn : exn }
(** Raised (under the {!Raise} policy) when an event callback raises:
    [time] is the instant the event fired, [exn] the original exception. *)

exception Livelock of { time : float; events : int; kind : livelock_kind }
(** Raised by the watchdog: [events] callbacks ran without the clock
    leaving [time] ({!Stall}), or a [run ~max_events] budget ran out
    ({!Budget}). *)

val create :
  ?now:float ->
  ?stall_budget:int ->
  ?on_error:error_policy ->
  unit ->
  t
(** [create ()] is a fresh engine with the clock at [now] (default 0).
    [stall_budget] (default 1_000_000) is the number of events that may
    execute at a single simulated instant before {!Livelock} is raised;
    legitimate bursts of simultaneous events are orders of magnitude
    smaller. @raise Invalid_argument if [stall_budget <= 0]. *)

val now : t -> float
(** [now t] is the current simulated time in seconds. *)

val schedule : t -> at:float -> (unit -> unit) -> timer
(** [schedule t ~at f] runs [f] when the clock reaches [at]. An event
    at [infinity] stays pending and never fires before a finite one.
    @raise Invalid_argument if [at] is in the past or NaN. *)

val schedule_in : t -> after:float -> (unit -> unit) -> timer
(** [schedule_in t ~after f] runs [f] [after] seconds from now. Negative
    delays are clamped to zero (the event runs after already-queued events
    at the current instant).
    @raise Invalid_argument if [after] is NaN. *)

val post : t -> at:float -> (unit -> unit) -> unit
(** {!schedule} without a cancellation handle: the event cannot be
    cancelled, and the queue allocates nothing beyond its arena slot.
    Use for fire-and-forget events on hot paths (packet deliveries).
    Ordering is identical to {!schedule} at the same time. *)

val post_in : t -> after:float -> (unit -> unit) -> unit
(** {!schedule_in}, handle-free (see {!post}). *)

val post_from : t -> sent:float -> at:float -> (unit -> unit) -> unit
(** [post_from t ~sent ~at f] posts a handle-free event carrying an
    explicit send instant into the dispatch key: the event sorts
    exactly where a local [post ~at] issued when the clock read [sent]
    would have. This is how {!Shard}'s barrier loop injects boundary
    messages so that same-float-time ties against local events resolve
    identically at any shard count.
    @raise Invalid_argument if [at] is in the past or NaN, [sent] is
    NaN, or [sent > at]. *)

val cancel : timer -> unit
(** [cancel timer] prevents a pending event from firing. Cancelling an
    already-fired or already-cancelled timer is harmless. *)

val pending : t -> int
(** Number of live events still queued. Exact: cancelled timers stop
    counting immediately, even while still buried in the queue. *)

val next_time : t -> float option
(** Scheduled time of the earliest pending event, or [None] when the
    queue is empty. This is the engine's safe lower bound for
    conservative synchronization: no state change can occur before it.
    Never earlier than {!now}. *)

val add_owned : t -> (unit -> unit) -> unit
(** Register a domain-adoption thunk — typically [fun () -> Pool.adopt p]
    for a {!Pool} whose events this engine dispatches. {!Shard.run}
    replays the registry on whichever domain executes this engine's
    windows, so pooled events fire on their owner domain. *)

val adopt_owned : t -> unit
(** Run every thunk registered with {!add_owned} on the calling domain.
    Idempotent per domain; called by the sharded runner before the first
    window a domain executes and again by the coordinator after a
    parallel run, handing ownership back. *)

val add_reclaim : t -> (unit -> unit) -> unit
(** Register an abort-path reclamation thunk — typically
    [fun () -> Pool.clear p] for a {!Pool} whose release events this
    engine dispatches. When a sharded run aborts after a lane failure,
    in-flight pooled records' release events will never fire;
    {!Shard.run}'s abort path replays this registry (after
    {!adopt_owned}) so those records are reclaimed rather than leaked.
    Never run on the success path: across incremental [run] calls a pool
    legitimately holds in-flight records. *)

val reclaim_owned : t -> unit
(** Run every thunk registered with {!add_reclaim}. Called only by the
    sharded runner's abort path; the engine and its pools must be
    considered dead for simulation purposes afterwards. *)

val set_stall_budget : t -> int -> unit
(** Adjust the livelock watchdog's per-instant event budget.
    @raise Invalid_argument if the budget is not positive. *)

val set_on_error : t -> error_policy -> unit
(** Switch how raising callbacks are handled (default {!Raise}). *)

val errors : t -> (float * exn) list
(** Errors collected so far under the {!Collect} policy, oldest first. *)

val clear_errors : t -> unit

val executed : t -> int
(** Total events executed over the engine's lifetime. *)

val total_executed : unit -> int
(** Process-wide tally of events executed by {e all} engines across all
    domains, for benchmark reporting (events/second). Engines flush
    their contribution once per {!run}/{!step} call, so concurrent
    readers may lag an in-flight [run] by that call's events. *)

val count_external : int -> unit
(** Add [n] externally-executed work items to {!total_executed} —
    for engine-free computations (e.g. the fluid-model game dynamics)
    whose per-step updates would otherwise be invisible to benchmark
    event counts. Thread-safe; non-positive [n] is ignored. *)

val step : t -> bool
(** [step t] executes the next event, if any; returns [false] when the
    queue is empty.
    @raise Event_error under the {!Raise} policy if the callback raises.
    @raise Livelock if the stall budget is exceeded. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** [run t] executes events until the queue drains, or — if [until] is
    given — until the next event would fire strictly after [until], in
    which case the clock is left at [until]. If [max_events] is given the
    call executes at most that many events before raising
    {!Livelock}[ {kind = Budget; _}]. *)

val run_for : ?max_events:int -> t -> float -> unit
(** [run_for t d] is [run t ~until:(now t +. d)]. *)
