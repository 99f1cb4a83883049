(* Conservative parallel discrete-event hub.

   A hub owns N engines ("shards"), each with its own event queue,
   clock, pools and — at the scenario layer — RNG stream. Cross-shard
   traffic flows through bounded channels whose [floor] is the link's
   minimum propagation delay; the global lookahead L (minimum floor
   over all channels) bounds how far any shard may run ahead of the
   others without risking a causality violation.

   The synchronization protocol is a barrier-window loop (YAWNS-style
   null messages degenerate to a global reduction because every shard
   synchronizes every round):

     round:
       1. inject buffered boundary messages, in canonical order
       2. tmin  := min over engines of next pending event time
       3. fire coordinator controls with time <= min(tmin, until)
       4. cap   := min(tmin + L, earliest pending control time)
          target:= if cap > until then until
                   else max(Float.pred cap, tmin)
       5. every engine runs [Engine.run ~until:target]

   Safety: every event executed in a window fires at some s in
   [tmin, target]; a boundary message it sends has
   arrival >= s + floor >= tmin + L >= cap > target, so the message's
   arrival lies strictly beyond every clock at the next barrier — it is
   injected there, before any event that could observe it. (When the
   ulp guard pins target to tmin the bound tightens to
   arrival >= tmin + L > tmin = target.)

   Determinism: shard windows advance in lockstep over the same global
   time fence regardless of how many shards (or domains) execute them,
   boundary messages are merged in the canonical
   (arrival, sent, channel, sequence) order, and controls fire at a
   fixed point of the event stream (after all events before their time,
   before any event at or after it). A seeded hub run is therefore
   byte-identical at any shard count and under Sequential or Parallel
   execution. Boundary messages are injected with {!Engine.post_from},
   carrying the source-side send instant into the destination's
   (time, sent, seq) dispatch key, so an injected event sorts exactly
   where a local post at that instant would have — same-float-time ties
   between a boundary delivery and a local event (which are structural
   in ack-clocked equilibrium, not measure-zero) resolve identically at
   any shard count. The residual caveat is the double coincidence of a
   boundary event and an unrelated local event agreeing in BOTH arrival
   and send instant, float-bit exact; the fuzz differential polices
   it.

   Failure containment (DESIGN.md §15): any exception escaping a
   shard's window — including injected chaos and a watchdog-abandoned
   wedge — aborts the run cleanly (channels drained, pools reclaimed,
   hub poisoned) and surfaces as one structured {!Lane_failure} naming
   the shard and barrier round. The byte-identical contract is what
   makes the degradation ladder in {!Degrade} sound: a retry at any
   narrower width reproduces the same output. *)

type message = {
  m_arrival : float;
  m_sent : float;
  m_chan : int;
  m_seq : int;
  m_fire : unit -> unit;
}

type control = { c_time : float; c_ord : int; c_fn : unit -> unit }

type chan_state = {
  cs_id : int;
  cs_floor : float;
  mutable cs_buf : message list;  (* newest first; drained at barriers *)
}

type stats = {
  rounds : int;
  messages : int;
  controls_fired : int;
  per_shard_events : int array;
  per_shard_busy_s : float array;
  wall_s : float;
  domains_used : int;
}

(* ----- chaos injection ----- *)

type chaos = {
  crash : (int * int) option;  (* (shard, lifetime barrier round) *)
  wedge : (int * int) option;
}

let no_chaos = { crash = None; wedge = None }

let chaos_pair ~what spec =
  let fail () =
    invalid_arg
      (Printf.sprintf
         "%s: %S does not parse as <shard>:<round> (shard >= 0, round >= 1)"
         what spec)
  in
  match String.index_opt spec ':' with
  | None -> fail ()
  | Some i -> (
    let s = String.sub spec 0 i
    and r = String.sub spec (i + 1) (String.length spec - i - 1) in
    match (int_of_string_opt s, int_of_string_opt r) with
    | Some s, Some r when s >= 0 && r >= 1 -> (s, r)
    | _ -> fail ())

let chaos_of_env () =
  let get name =
    match Sys.getenv_opt name with
    | None | Some "" -> None
    | Some spec -> Some (chaos_pair ~what:name spec)
  in
  { crash = get "PCC_TEST_SHARD_CRASH"; wedge = get "PCC_TEST_SHARD_WEDGE" }

let chaos_of_string spec =
  let part acc part =
    let part = String.trim part in
    match String.index_opt part '=' with
    | Some i -> (
      let key = String.sub part 0 i
      and v = String.sub part (i + 1) (String.length part - i - 1) in
      match key with
      | "crash" ->
        { acc with crash = Some (chaos_pair ~what:"--shard-chaos crash" v) }
      | "wedge" ->
        { acc with wedge = Some (chaos_pair ~what:"--shard-chaos wedge" v) }
      | _ ->
        invalid_arg
          (Printf.sprintf
             "--shard-chaos: unknown key %S (want crash=<shard>:<round> or \
              wedge=<shard>:<round>)"
             key))
    | None ->
      invalid_arg
        (Printf.sprintf
           "--shard-chaos: %S is not key=<shard>:<round> (keys: crash, wedge)"
           part)
  in
  List.fold_left part no_chaos (String.split_on_char ',' spec)

(* Process-wide default: hubs are created deep inside experiments and
   scenario builders, so chaos flows through this rather than a
   threaded parameter.
   Resolution: explicit [set_default_chaos] (CLI) beats PCC_TEST_SHARD_*
   in the environment beats none. *)
let chaos_override = ref None
let set_default_chaos c = chaos_override := Some c

let default_chaos () =
  match !chaos_override with Some c -> c | None -> chaos_of_env ()

type t = {
  engines : Engine.t array;
  mutable chans : chan_state list;  (* registration order, newest first *)
  mutable controls : control list;  (* unsorted *)
  mutable ctrl_ord : int;
  mutable fired_controls : int;
  mutable injected : int;
  mutable all_rounds : int;  (* lifetime, across runs *)
  mutable all_messages : int;
  mutable last_stats : stats option;
  mutable running : bool;
  mutable poisoned : bool;  (* a lane failure aborted this hub *)
  mutable chaos : chaos;
  mutable lane_deadline : float option;
  mutable lane_max_events : int option;
  mutable wedge_grace : float option;
  mutable sleep : (float -> unit) option;
}

type 'a channel = {
  ch_state : chan_state;
  ch_src : int;
  ch_dst : int;
  ch_inject : arrival:float -> sent:float -> 'a -> unit;
  mutable ch_seq : int;
}

exception Shard_error of string
exception Chaos_crash of { shard : int; round : int }
exception Lane_wedged of { shard : int; round : int; stale : float }

exception
  Lane_failure of {
    shard : int;
    round : int;
    wedged : bool;
    origin : exn;
    backtrace : string;
  }

let () =
  Printexc.register_printer (function
    | Shard_error msg -> Some (Printf.sprintf "Shard_error: %s" msg)
    | Chaos_crash { shard; round } ->
      Some
        (Printf.sprintf
           "Shard.Chaos_crash: injected crash on shard %d at barrier round %d"
           shard round)
    | Lane_wedged { shard; round; stale } ->
      Some
        (Printf.sprintf
           "Shard.Lane_wedged: shard %d wedged at barrier round %d \
            (heartbeat stale %.2fs)"
           shard round stale)
    | Lane_failure { shard; round; wedged; origin; _ } ->
      Some
        (Printf.sprintf
           "Shard.Lane_failure: shard %d %s at barrier round %d: %s" shard
           (if wedged then "wedged" else "crashed")
           round (Printexc.to_string origin))
    | _ -> None)

let create ?on_error ~shards () =
  if shards < 1 then invalid_arg "Shard.create: shards must be >= 1";
  {
    engines =
      Array.init shards (fun _ -> Engine.create ?on_error ());
    chans = [];
    controls = [];
    ctrl_ord = 0;
    fired_controls = 0;
    injected = 0;
    all_rounds = 0;
    all_messages = 0;
    last_stats = None;
    running = false;
    poisoned = false;
    chaos = default_chaos ();
    lane_deadline = None;
    lane_max_events = None;
    wedge_grace = None;
    sleep = None;
  }

let configure ?chaos ?lane_deadline ?lane_max_events ?wedge_grace ?sleep t =
  (match lane_deadline with
  | Some d when d <= 0. ->
    invalid_arg "Shard.configure: lane_deadline must be positive"
  | _ -> ());
  (match lane_max_events with
  | Some n when n <= 0 ->
    invalid_arg "Shard.configure: lane_max_events must be positive"
  | _ -> ());
  (match wedge_grace with
  | Some g when g <= 0. ->
    invalid_arg "Shard.configure: wedge_grace must be positive"
  | _ -> ());
  Option.iter (fun c -> t.chaos <- c) chaos;
  Option.iter (fun d -> t.lane_deadline <- Some d) lane_deadline;
  Option.iter (fun n -> t.lane_max_events <- Some n) lane_max_events;
  Option.iter (fun g -> t.wedge_grace <- Some g) wedge_grace;
  Option.iter (fun s -> t.sleep <- Some s) sleep

let poisoned t = t.poisoned
let shards t = Array.length t.engines

let engine t i =
  if i < 0 || i >= Array.length t.engines then
    invalid_arg (Printf.sprintf "Shard.engine: no shard %d" i);
  t.engines.(i)

let engines t = Array.copy t.engines

let channel t ~src ~dst ~floor ~inject =
  let n = Array.length t.engines in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Shard.channel: shard index out of range";
  if src = dst then invalid_arg "Shard.channel: src and dst coincide";
  if not (floor > 0.) then
    invalid_arg "Shard.channel: floor must be positive (zero lookahead \
                 would stall the window protocol)";
  let cs = { cs_id = List.length t.chans; cs_floor = floor; cs_buf = [] } in
  t.chans <- cs :: t.chans;
  { ch_state = cs; ch_src = src; ch_dst = dst; ch_inject = inject; ch_seq = 0 }

let send ch ~now ~arrival v =
  if arrival < now +. ch.ch_state.cs_floor then
    raise
      (Shard_error
         (Printf.sprintf
            "channel %d: arrival %.9f violates floor %.9f from t=%.9f"
            ch.ch_state.cs_id arrival ch.ch_state.cs_floor now));
  let seq = ch.ch_seq in
  ch.ch_seq <- seq + 1;
  let inject = ch.ch_inject in
  ch.ch_state.cs_buf <-
    {
      m_arrival = arrival;
      m_sent = now;
      m_chan = ch.ch_state.cs_id;
      m_seq = seq;
      m_fire = (fun () -> inject ~arrival ~sent:now v);
    }
    :: ch.ch_state.cs_buf

let channel_src ch = ch.ch_src
let channel_dst ch = ch.ch_dst

let at t ~time f =
  let ord = t.ctrl_ord in
  t.ctrl_ord <- ord + 1;
  t.controls <- { c_time = time; c_ord = ord; c_fn = f } :: t.controls

let lookahead t =
  List.fold_left (fun acc c -> Float.min acc c.cs_floor) infinity t.chans

let executed t =
  Array.fold_left (fun acc e -> acc + Engine.executed e) 0 t.engines

let pending t =
  Array.fold_left (fun acc e -> acc + Engine.pending e) 0 t.engines

let last_stats t = t.last_stats
let total_rounds t = t.all_rounds
let total_messages t = t.all_messages

type mode = Sequential | Parallel of int

(* ----- coordinator-side barrier machinery (single-threaded) ----- *)

let msg_before a b =
  a.m_arrival < b.m_arrival
  || (a.m_arrival = b.m_arrival
      && (a.m_sent < b.m_sent
          || (a.m_sent = b.m_sent
              && (a.m_chan < b.m_chan
                  || (a.m_chan = b.m_chan && a.m_seq < b.m_seq)))))

let drain_inbox t =
  let all =
    List.fold_left
      (fun acc cs ->
        match cs.cs_buf with
        | [] -> acc
        | buf ->
          cs.cs_buf <- [];
          List.rev_append buf acc)
      [] t.chans
  in
  match all with
  | [] -> ()
  | all ->
    let all =
      List.sort (fun a b -> if msg_before a b then -1 else 1) all
    in
    List.iter
      (fun m ->
        t.injected <- t.injected + 1;
        m.m_fire ())
      all

let tmin t =
  Array.fold_left
    (fun acc e ->
      match Engine.next_time e with
      | Some time -> Float.min acc time
      | None -> acc)
    infinity t.engines

let ctrl_min t =
  List.fold_left (fun acc c -> Float.min acc c.c_time) infinity t.controls

(* Fire every control due at or before [min tmin until], in
   (time, registration) order, re-checking after each batch because a
   control may register further controls (recurring probes) or post
   events (shifting tmin). Returns the post-firing tmin. *)
let fire_controls t ~until =
  let budget = ref 10_000_000 in
  let rec loop () =
    let tmin = tmin t in
    let bound = Float.min tmin until in
    let due, rest =
      List.partition (fun c -> c.c_time <= bound) t.controls
    in
    match due with
    | [] -> tmin
    | due ->
      t.controls <- rest;
      let due =
        List.sort
          (fun a b ->
            if a.c_time < b.c_time then -1
            else if a.c_time > b.c_time then 1
            else compare a.c_ord b.c_ord)
          due
      in
      List.iter
        (fun c ->
          decr budget;
          if !budget < 0 then
            raise
              (Shard_error
                 (Printf.sprintf
                    "control livelock: 10M controls fired in one round \
                     near t=%.9f"
                    c.c_time));
          t.fired_controls <- t.fired_controls + 1;
          c.c_fn ())
        due;
      loop ()
  in
  loop ()

(* The fence every engine runs to this round. Events execute strictly
   below [tmin + L] (so every boundary message lands beyond the next
   barrier) and strictly below the earliest pending control; when the
   window would be empty by ulp-rounding, it degenerates to exactly
   [tmin], which is still safe because a message sent at tmin arrives
   at >= tmin + L > tmin. *)
let window_target t ~until ~tmin =
  let cap = Float.min (tmin +. lookahead t) (ctrl_min t) in
  if cap > until then until
  else
    let p = Float.pred cap in
    if p < tmin then tmin else p

(* Chaos fires only on multi-shard hubs: the faults being modelled are
   lane-level, and gating on [shards > 1] guarantees the ladder's final
   1-shard rung always runs clean — injected chaos can never exhaust
   the ladder (a genuine deterministic bug still fails every rung,
   which is the correct outcome). *)
let chaos_raise t ~shard ~round =
  if Array.length t.engines > 1 then begin
    (match t.chaos.crash with
    | Some (s, r) when s = shard && r = round ->
      raise (Chaos_crash { shard; round })
    | _ -> ());
    match t.chaos.wedge with
    | Some (s, r) when s = shard && r = round ->
      (* Without lanes there is nothing to wedge out-of-band: the
         injection degenerates to a synchronous failure, which still
         exercises the abort and ladder paths. *)
      raise (Lane_wedged { shard; round; stale = 0. })
    | _ -> ()
  end

(* ----- parallel lanes ----- *)

type cmd = Go of { target : float; round : int } | Quit

type lane = {
  l_mutex : Mutex.t;
  l_cond : Condition.t;
  mutable l_cmd : cmd option;
  mutable l_done : bool;
  mutable l_failed : (int * exn * string) option;
      (* (shard, origin, backtrace); first failure wins *)
  l_shards : int array;  (* shard indices this lane executes, ascending *)
  l_beat : float Atomic.t;  (* wall-clock heartbeat for the watchdog *)
  mutable l_abandoned : bool;  (* the watchdog gave up on this lane *)
  mutable l_release : bool;  (* wakes a chaos-wedged lane *)
  mutable l_recovered : bool;  (* an abandoned lane rejoined the protocol *)
}

let lane_fail lane shard exn bt =
  Mutex.lock lane.l_mutex;
  if lane.l_failed = None then lane.l_failed <- Some (shard, exn, bt);
  Mutex.unlock lane.l_mutex

let lane_failed lane =
  Mutex.lock lane.l_mutex;
  let f = lane.l_failed in
  Mutex.unlock lane.l_mutex;
  f

(* A chaos-wedged lane parks here, silent (no heartbeat), until the
   watchdog abandons it — unlike a real wedge it then rejoins the
   protocol so the test run can join its domain. *)
let wedge_wait lane =
  Mutex.lock lane.l_mutex;
  while not lane.l_release do
    Condition.wait lane.l_cond lane.l_mutex
  done;
  lane.l_recovered <- true;
  Mutex.unlock lane.l_mutex

let lane_run t lane ~clock ~busy ~target ~round ~blocking =
  let n = Array.length t.engines in
  try
    Array.iter
      (fun i ->
        if lane_failed lane = None then begin
          let e = t.engines.(i) in
          let t0 = clock () in
          (try
             Atomic.set lane.l_beat t0;
             (* Window-granularity deadline + heartbeat for this lane's
                guard (installed by [worker_loop], or the caller's own
                guard on lane 0). *)
             Task_guard.stamp ();
             (match t.chaos.wedge with
             | Some (s, r) when n > 1 && s = i && r = round && blocking ->
               wedge_wait lane
             | _ -> ());
             chaos_raise t ~shard:i ~round;
             Engine.run ~until:target e
           with exn -> lane_fail lane i exn (Printexc.get_backtrace ()));
          busy.(i) <- busy.(i) +. (clock () -. t0)
        end)
      lane.l_shards
  with exn ->
    (* Defensive: nothing above should raise outside the per-engine
       handler, but a lane must never die without reporting. *)
    lane_fail lane lane.l_shards.(0) exn (Printexc.get_backtrace ())

let worker_loop t lane ~clock ~busy ~blocking =
  (* Pools wired to this lane's engines must fire on this domain. *)
  Array.iter (fun i -> Engine.adopt_owned t.engines.(i)) lane.l_shards;
  (* Install a per-lane guard whenever limits are configured, and also
     whenever the watchdog is armed: the guard's every-512-events check
     stamps [l_beat], so a long legitimate window never looks stale. *)
  let guarded =
    blocking || t.lane_deadline <> None || t.lane_max_events <> None
  in
  if guarded then
    Task_guard.install ?deadline:t.lane_deadline
      ?max_events:t.lane_max_events ~heartbeat:lane.l_beat ~clock ();
  Fun.protect ~finally:(fun () -> if guarded then Task_guard.uninstall ())
  @@ fun () ->
  let rec loop () =
    Mutex.lock lane.l_mutex;
    let rec await () =
      match lane.l_cmd with
      | Some cmd ->
        lane.l_cmd <- None;
        cmd
      | None ->
        Condition.wait lane.l_cond lane.l_mutex;
        await ()
    in
    let cmd = await () in
    Mutex.unlock lane.l_mutex;
    match cmd with
    | Quit -> ()
    | Go { target; round } ->
      lane_run t lane ~clock ~busy ~target ~round ~blocking;
      Mutex.lock lane.l_mutex;
      lane.l_done <- true;
      Condition.signal lane.l_cond;
      Mutex.unlock lane.l_mutex;
      loop ()
  in
  loop ()

let lane_go lane ~target ~round =
  Mutex.lock lane.l_mutex;
  lane.l_cmd <- Some (Go { target; round });
  Condition.signal lane.l_cond;
  Mutex.unlock lane.l_mutex

(* Wakes on completion or on watchdog abandonment ([abandon_lane]
   broadcasts the same condition). [l_done] is deliberately left set:
   the watchdog reads it to tell a finished lane from a wedged one, so
   the coordinator only clears it once the whole round is awaited (see
   [await_lanes]). *)
let lane_await lane =
  Mutex.lock lane.l_mutex;
  while not (lane.l_done || lane.l_abandoned) do
    Condition.wait lane.l_cond lane.l_mutex
  done;
  Mutex.unlock lane.l_mutex

let lane_quit lane =
  Mutex.lock lane.l_mutex;
  lane.l_cmd <- Some Quit;
  Condition.signal lane.l_cond;
  Mutex.unlock lane.l_mutex

(* The out-of-band watchdog gave up on a lane whose heartbeat went
   stale. Record a synthetic wedge failure (blaming the chaos-targeted
   shard when the staleness was injected, the lane's first shard
   otherwise), then release the lane in case it is parked in
   [wedge_wait]. A genuinely wedged domain never wakes; it is leaked,
   exactly like the supervisor's abandoned workers. *)
let abandon_lane t lane ~round ~stale =
  Mutex.lock lane.l_mutex;
  (* [l_done] re-checked under the mutex: the lane may have completed
     between the watchdog's staleness probe and this call. *)
  if (not lane.l_abandoned) && not lane.l_done then begin
    let shard =
      match t.chaos.wedge with
      | Some (s, r)
        when r = round && Array.exists (fun i -> i = s) lane.l_shards ->
        s
      | _ -> lane.l_shards.(0)
    in
    if lane.l_failed = None then
      lane.l_failed <- Some (shard, Lane_wedged { shard; round; stale }, "");
    lane.l_abandoned <- true;
    lane.l_release <- true;
    Condition.broadcast lane.l_cond
  end;
  Mutex.unlock lane.l_mutex

(* ----- the run loop ----- *)

let run ?(mode = Sequential) ?max_events ?clock t ~until =
  if t.poisoned then
    raise
      (Shard_error
         "Shard.run: hub was aborted by a lane failure; rebuild the \
          simulation (the degradation ladder in Degrade does this)");
  if t.running then raise (Shard_error "Shard.run: hub already running");
  let n = Array.length t.engines in
  let wall_clock = match clock with Some c -> c | None -> fun () -> 0. in
  let busy_clock = wall_clock in
  (* One trace ring per process (Domain.DLS in the collector), so a
     traced run must stay on the calling domain; likewise a global
     [max_events] budget is only meaningful when windows execute in a
     deterministic order. Both force sequential execution — output is
     unaffected, per the determinism contract. *)
  let domains_used =
    match mode with
    | Sequential -> 1
    | Parallel d ->
      if max_events <> None || Pcc_trace.Collector.enabled () then 1
      else max 1 (min d n)
  in
  (* The watchdog needs a real clock to compare heartbeats against and
     a way to sleep between polls (injected: this library has no unix
     dependency). Without all three ingredients lanes run unwatched,
     exactly as before. *)
  let watchdog =
    if domains_used > 1 then
      match (clock, t.sleep, t.wedge_grace) with
      | Some c, Some sl, Some g -> Some (c, sl, g)
      | _ -> None
    else None
  in
  let blocking = watchdog <> None in
  (* Guard the coordinator's own windows (lane 0, or everything in
     sequential mode) with the configured lane limits — unless the
     caller already installed a guard (the supervisor does), which then
     keeps authority over this domain. *)
  let own_guard =
    (t.lane_deadline <> None || t.lane_max_events <> None)
    && not (Task_guard.active ())
  in
  if own_guard then
    Task_guard.install ?deadline:t.lane_deadline
      ?max_events:t.lane_max_events ~clock:wall_clock ();
  let start_events = Array.map Engine.executed t.engines in
  let busy = Array.make n 0. in
  let wall0 = wall_clock () in
  t.running <- true;
  t.injected <- 0;
  t.fired_controls <- 0;
  let rounds = ref 0 in
  let budget_left = ref (match max_events with Some b -> b | None -> 0) in
  let run_engine_seq target i =
    let e = t.engines.(i) in
    let t0 = busy_clock () in
    Fun.protect
      ~finally:(fun () -> busy.(i) <- busy.(i) +. (busy_clock () -. t0))
      (fun () ->
        match max_events with
        | None -> Engine.run ~until:target e
        | Some _ ->
          let before = Engine.executed e in
          Fun.protect
            ~finally:(fun () ->
              budget_left := !budget_left - (Engine.executed e - before))
            (fun () -> Engine.run ~until:target ~max_events:!budget_left e))
  in
  let lanes =
    if domains_used <= 1 then [||]
    else
      Array.init domains_used (fun l ->
          let mine =
            Array.of_list
              (List.filter
                 (fun i -> i mod domains_used = l)
                 (List.init n Fun.id))
          in
          {
            l_mutex = Mutex.create ();
            l_cond = Condition.create ();
            l_cmd = None;
            l_done = false;
            l_failed = None;
            l_shards = mine;
            l_beat = Atomic.make (wall_clock ());
            l_abandoned = false;
            l_release = false;
            l_recovered = false;
          })
  in
  let doms =
    if domains_used <= 1 then [||]
    else
      Array.init (domains_used - 1) (fun k ->
          let lane = lanes.(k + 1) in
          Domain.spawn (fun () ->
              worker_loop t lane ~clock:busy_clock ~busy ~blocking))
  in
  (* The out-of-band watchdog runs on its own domain so the coordinator
     can block on lane conditions at full speed: polling in the await
     path would add a sleep to every barrier round. [wd_round] is the
     round the coordinator is currently awaiting (0 between rounds —
     idle lanes legitimately stop heartbeating and must not be
     abandoned); an abandonment broadcasts the lane condition, waking
     the coordinator. *)
  let wd_round = Atomic.make 0 in
  let wd_stop = Atomic.make false in
  let watchdog_dom =
    match watchdog with
    | None -> None
    | Some (wclock, sleep, grace) ->
      Some
        (Domain.spawn (fun () ->
             let period = Float.max 0.0005 (grace /. 20.) in
             while not (Atomic.get wd_stop) do
               let round = Atomic.get wd_round in
               if round > 0 then
                 for l = 1 to domains_used - 1 do
                   let lane = lanes.(l) in
                   Mutex.lock lane.l_mutex;
                   let busy_lane = (not lane.l_done) && not lane.l_abandoned in
                   Mutex.unlock lane.l_mutex;
                   if busy_lane then begin
                     let stale = wclock () -. Atomic.get lane.l_beat in
                     (* Re-read the round gate right before acting: the
                        coordinator clears [wd_round] before resetting
                        [l_done], so a lane that merely finished between
                        our two reads can never be blamed. *)
                     if stale > grace && Atomic.get wd_round = round then
                       abandon_lane t lane ~round ~stale
                   end
                 done;
               sleep period
             done))
  in
  let stopped = ref false in
  let stop_workers () =
    if not !stopped then begin
      stopped := true;
      Atomic.set wd_stop true;
      Option.iter Domain.join watchdog_dom;
      if Array.length doms > 0 then begin
        for l = 1 to Array.length lanes - 1 do
          lane_quit lanes.(l)
        done;
        Array.iteri
          (fun k d ->
            let lane = lanes.(k + 1) in
            let joinable =
              Mutex.lock lane.l_mutex;
              let j = (not lane.l_abandoned) || lane.l_recovered in
              Mutex.unlock lane.l_mutex;
              j
            in
            (* An abandoned lane that never recovered is wedged in user
               code and would block [join] forever: leak the domain,
               like the supervisor leaks its abandoned workers. *)
            if joinable then Domain.join d)
          doms;
        (* Hand every pool back to the coordinator so post-run
           inspection (digests, clears, further sequential runs) fires
           cleanly. *)
        Array.iter Engine.adopt_owned t.engines
      end
    end
  in
  (* Clean abort: quit and join the lanes, drop every buffered boundary
     message (checkout of pooled records happens at injection, so the
     buffers hold only plain closures), reclaim pooled records whose
     release events will never fire, and poison the hub — its shards
     stopped at different windows and can never be resumed coherently.
     The single structured exception is what the supervisor, the
     degradation ladder and the CLI all consume. *)
  let abort ~round (shard, origin, backtrace) =
    stop_workers ();
    List.iter (fun cs -> cs.cs_buf <- []) t.chans;
    Array.iter Engine.adopt_owned t.engines;
    Array.iter Engine.reclaim_owned t.engines;
    t.poisoned <- true;
    let wedged = match origin with Lane_wedged _ -> true | _ -> false in
    raise (Lane_failure { shard; round; wedged; origin; backtrace })
  in
  let await_lanes ~round =
    if watchdog_dom <> None then Atomic.set wd_round round;
    for l = 1 to domains_used - 1 do
      lane_await lanes.(l)
    done;
    (* Order matters: take the watchdog off-round BEFORE clearing the
       completion flags, so it never mistakes a just-finished lane (done
       cleared, heartbeat going stale) for a wedged one. *)
    if watchdog_dom <> None then Atomic.set wd_round 0;
    for l = 1 to domains_used - 1 do
      let lane = lanes.(l) in
      Mutex.lock lane.l_mutex;
      lane.l_done <- false;
      Mutex.unlock lane.l_mutex
    done
  in
  let finish () =
    t.running <- false;
    t.all_rounds <- t.all_rounds + !rounds;
    t.all_messages <- t.all_messages + t.injected;
    if own_guard then Task_guard.uninstall ();
    t.last_stats <-
      Some
        {
          rounds = !rounds;
          messages = t.injected;
          controls_fired = t.fired_controls;
          per_shard_events =
            Array.mapi
              (fun i e -> Engine.executed e - start_events.(i))
              t.engines;
          per_shard_busy_s = busy;
          wall_s = wall_clock () -. wall0;
          domains_used;
        }
  in
  Fun.protect ~finally:(fun () -> stop_workers (); finish ())
  @@ fun () ->
  let continue = ref true in
  while !continue do
    drain_inbox t;
    let tmin = fire_controls t ~until in
    if tmin > until && ctrl_min t > until then begin
      (* Quiescent below the horizon: park every clock at [until],
         exactly as a monolithic [Engine.run ~until] would. *)
      Array.iter (fun e -> Engine.run ~until e) t.engines;
      continue := false
    end
    else begin
      incr rounds;
      (* Lifetime numbering: callers that drive the hub in interval
         slices see one continuous round counter, so a chaos spec or a
         forensics report names the same round either way. *)
      let round = t.all_rounds + !rounds in
      if Task_guard.active () then begin
        Task_guard.on_event ();
        Task_guard.stamp ()
      end;
      let target = window_target t ~until ~tmin in
      if domains_used <= 1 then begin
        let failed = ref None in
        for i = 0 to n - 1 do
          if !failed = None then
            try
              chaos_raise t ~shard:i ~round;
              run_engine_seq target i
            with
            | Engine.Livelock { kind = Engine.Budget; _ } as b
              when max_events <> None ->
              (* The caller's global event budget, not a shard fault:
                 propagate unwrapped, as every budgeted consumer (the
                 fuzzer) expects. *)
              raise b
            | exn -> failed := Some (i, exn, Printexc.get_backtrace ())
        done;
        match !failed with Some f -> abort ~round f | None -> ()
      end
      else begin
        for l = 1 to domains_used - 1 do
          Atomic.set lanes.(l).l_beat (wall_clock ());
          lane_go lanes.(l) ~target ~round
        done;
        lane_run t lanes.(0) ~clock:busy_clock ~busy ~target ~round
          ~blocking:false;
        await_lanes ~round;
        let worst =
          Array.fold_left
            (fun acc lane ->
              match (lane_failed lane, acc) with
              | None, acc -> acc
              | (Some _ as f), None -> f
              | (Some (i, _, _) as f), Some (j, _, _) ->
                if i < j then f else acc)
            None lanes
        in
        match worst with Some f -> abort ~round f | None -> ()
      end
    end
  done

let run_stats ?mode ?max_events ?clock t ~until =
  run ?mode ?max_events ?clock t ~until;
  match t.last_stats with Some s -> s | None -> assert false
