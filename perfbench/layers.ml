(* The traced pass ([--trace 1]): per-layer counts and times, measured
   from outside. Counts come from the layers' public counters and from a
   [Pcc_trace.Collector] drained between run slices; times come from the
   bench's own spans around its calls into each layer, including four
   micro-benches that call a layer's public functions directly at the depth,
   window or rate the trace observed. *)

open Pcc_sim
open Pcc_net
open Pcc_scenario
module Collector = Pcc_trace.Collector
module Event = Pcc_trace.Event

let base_slices = 10
let traced_slices = 50
let ring = 1 lsl 20

(* ------------------------------------------------------------------ *)
(* Counting the drained ring *)

type counts = {
  mutable dispatch : int;
  mutable depth : int array;  (** Dispatch records by pending depth. *)
  mutable depth_max : int;
  mutable loss_cuts : int;
  mutable rto : int;
  mutable cwnd_max : float;
  burst : (int, int) Hashtbl.t;  (** TCP flow -> drops since its last cut. *)
  mutable holes : int;  (** Most TCP queue drops in one loss episode. *)
  mutable mis : int;
  mutable mi_rate_sum : float;
  mutable mi_discards : int;
  mutable rate_changes : int;
  mutable gradient_steps : int;
  mutable utility_switches : int;
  mutable queue_max : float;
  mutable emitted : int;
  mutable dropped : int;
  mutable export_s : float;
}

let counts () =
  {
    dispatch = 0;
    depth = Array.make 1024 0;
    depth_max = 0;
    loss_cuts = 0;
    rto = 0;
    cwnd_max = 0.;
    burst = Hashtbl.create 16;
    holes = 0;
    mis = 0;
    mi_rate_sum = 0.;
    mi_discards = 0;
    rate_changes = 0;
    gradient_steps = 0;
    utility_switches = 0;
    queue_max = 0.;
    emitted = 0;
    dropped = 0;
    export_s = 0.;
  }

let count_depth c d =
  if d >= Array.length c.depth then begin
    let a = Array.make (2 * (d + 1)) 0 in
    Array.blit c.depth 0 a 0 (Array.length c.depth);
    c.depth <- a
  end;
  c.depth.(d) <- c.depth.(d) + 1;
  if d > c.depth_max then c.depth_max <- d

let depth_p50 c =
  let half = (c.dispatch + 1) / 2 and seen = ref 0 and d = ref 0 in
  while !seen < half && !d < Array.length c.depth do
    seen := !seen + c.depth.(!d);
    if !seen < half then incr d
  done;
  !d

let count c ~tcp (r : Event.record) =
  match r.Event.kind with
  | Event.Dispatch ->
    c.dispatch <- c.dispatch + 1;
    count_depth c (int_of_float r.Event.a)
  | Event.Cwnd ->
    if r.Event.a > c.cwnd_max then c.cwnd_max <- r.Event.a;
    if r.Event.i >= 1 then begin
      if r.Event.i = 1 then c.loss_cuts <- c.loss_cuts + 1
      else c.rto <- c.rto + 1;
      Hashtbl.replace c.burst r.Event.id 0
    end
  | Event.Drop ->
    if r.Event.a > c.queue_max then c.queue_max <- r.Event.a;
    if Hashtbl.mem tcp r.Event.i then begin
      let n = 1 + Option.value (Hashtbl.find_opt c.burst r.Event.i) ~default:0 in
      Hashtbl.replace c.burst r.Event.i n;
      if n > c.holes then c.holes <- n
    end
  | Event.Enqueue | Event.Queue_sample ->
    if r.Event.a > c.queue_max then c.queue_max <- r.Event.a
  | Event.Mi_start ->
    c.mis <- c.mis + 1;
    c.mi_rate_sum <- c.mi_rate_sum +. r.Event.a
  | Event.Mi_discard -> c.mi_discards <- c.mi_discards + 1
  | Event.Rate_change -> c.rate_changes <- c.rate_changes + 1
  | Event.Gradient_step -> c.gradient_steps <- c.gradient_steps + 1
  | Event.Utility_switch -> c.utility_switches <- c.utility_switches + 1
  | Event.Mi_end | Event.Flow_start | Event.Flow_stop | Event.Flow_complete -> ()

(* Empty the ring into [c]: count its records, time exporting it as
   Chrome JSON (the artifact a user would write), then clear it. *)
let drain ~canonical c ~tcp col =
  Spans.with_span ~layer:"trace" "trace.drain" (fun () ->
      Array.iter (count c ~tcp) (Collector.events col);
      c.emitted <- c.emitted + Collector.emitted col;
      c.dropped <- c.dropped + Collector.dropped col);
  let _, s =
    Spans.with_span ~layer:"trace" "trace.export" (fun () ->
        Host.time (fun () -> String.length (Pcc_trace.Export.chrome_json ~canonical col)))
  in
  c.export_s <- c.export_s +. s;
  Collector.clear col

(* ------------------------------------------------------------------ *)
(* Layer micro-benches *)

(* [Engine.post]/[schedule]/[run] with no-op callbacks holding [depth]
   events pending: each dispatch re-arms itself at a uniformly random
   later instant until [total] dispatches have run. *)
let engine_drive ~depth ~total =
  let e = Engine.create () in
  let rng = Rng.create 7 in
  let left = ref total in
  let rec tick () =
    if !left > 0 then begin
      decr left;
      let at = Engine.now e +. Rng.float rng in
      if !left land 1 = 0 then Engine.post e ~at tick
      else ignore (Engine.schedule e ~at tick)
    end
  in
  for _ = 1 to depth do
    Engine.post e ~at:(Rng.float rng) tick
  done;
  let _, s = Host.time (fun () -> Engine.run e) in
  s *. 1e9 /. float_of_int (total + depth)

(* [Scoreboard.record_send]/[on_ack]/[detect_losses]/[take_retx] in a
   steady state with [window] packets in flight, one first transmission
   in every [window / holes] lost: a packet is acked [window] sends after
   it went out, a hole is declared lost once it is older than 0.8 of
   that, and its retransmission is acked [window] sends later. *)
let scoreboard_drive ~window ~holes ~acks =
  let sb = Scoreboard.create () in
  let every = max 1 (window / max 1 holes) in
  let total = acks + window in
  let got = Bytes.make (total + 1) '\000' in
  let cum = ref (-1) in
  let retx_due = Queue.create () in
  let sent = Array.make total 0 in
  let min_age = 0.8 *. float_of_int window in
  let ack seq ~sent_at ~retx =
    if Bytes.get got seq = '\000' then Bytes.set got seq '\001';
    while !cum + 1 < total && Bytes.get got (!cum + 1) = '\001' do
      incr cum
    done;
    ignore
      (Scoreboard.on_ack sb
         Packet.
           {
             acked_seq = seq;
             cum_ack = !cum;
             recv_bytes = 0;
             data_sent_at = sent_at;
             data_retx = retx;
           })
  in
  let step i =
    let now = float_of_int i in
    (match Scoreboard.fresh_seq sb with
    | Some s ->
      sent.(i) <- s;
      Scoreboard.record_send sb s ~now
    | None -> ());
    if i >= window then begin
      let s = sent.(i - window) in
      if s mod every <> 0 then ack s ~sent_at:(now -. float_of_int window) ~retx:false
    end;
    while (not (Queue.is_empty retx_due)) && fst (Queue.peek retx_due) <= i do
      let _, s = Queue.pop retx_due in
      ack s ~sent_at:(now -. float_of_int window) ~retx:true
    done;
    ignore (Scoreboard.detect_losses sb ~now ~min_age);
    let rec resend () =
      match Scoreboard.take_retx sb with
      | Some s ->
        Scoreboard.record_send sb s ~now;
        Queue.push (i + window, s) retx_due;
        resend ()
      | None -> ()
    in
    resend ()
  in
  let _, s =
    Host.time (fun () ->
        for i = 0 to total - 1 do
          step i
        done)
  in
  s *. 1e9 /. float_of_int total

(* [Monitor.on_send]/[on_ack] for a flow sending at [rate] with [rtt]
   between a send and its ack: one engine event per packet, so monitor
   intervals open and close on schedule. *)
let monitor_drive ~rate ~rtt ~pkts =
  let e = Engine.create () in
  let m =
    Pcc_core.Monitor.create e Pcc_core.Monitor.default_config
      ~rng:(Rng.create 11) ~utility:(Pcc_core.Utility.safe ())
      ~rate_for_mi:(fun ~id:_ -> rate)
      ~on_result:ignore ~on_mi_losses:ignore
  in
  let gap = float_of_int (8 * Units.mss) /. rate in
  let lag = max 1 (int_of_float (rtt /. gap)) in
  let seq = ref 0 in
  let rec tick () =
    if !seq < pkts then begin
      Pcc_core.Monitor.on_send m ~seq:!seq ~size:Units.mss;
      if !seq >= lag then
        Pcc_core.Monitor.on_ack m ~seq:(!seq - lag) ~rtt:(Some rtt) ~size:Units.mss;
      incr seq;
      Engine.post_in e ~after:gap tick
    end
  in
  Pcc_core.Monitor.start m;
  Engine.post e ~at:0. tick;
  let _, s = Host.time (fun () -> Engine.run ~until:(gap *. float_of_int (pkts + 1)) e) in
  Pcc_core.Monitor.stop m;
  s *. 1e9 /. float_of_int pkts

(* [Queue_disc] droptail enqueue/dequeue pairs at a standing occupancy
   of [depth] bytes. *)
let queue_drive ~capacity ~depth ~pkts =
  let q = Queue_disc.droptail_bytes ~capacity () in
  let pkt i = Packet.data ~flow:0 ~seq:i ~size:Units.mss ~now:0. ~retx:false in
  let ring = Array.init 4096 pkt in
  let standing = max 0 (min depth (capacity - Units.mss)) / Units.mss in
  for i = 0 to standing - 1 do
    ignore (q.Queue_disc.enqueue ~now:0. ring.(i land 4095))
  done;
  let _, s =
    Host.time (fun () ->
        for i = 0 to pkts - 1 do
          let now = float_of_int i *. 1e-6 in
          ignore (q.Queue_disc.enqueue ~now ring.(i land 4095));
          ignore (q.Queue_disc.dequeue ~now)
        done)
  in
  s *. 1e9 /. float_of_int pkts

(* ------------------------------------------------------------------ *)
(* Passes *)

let sum_stats (a : Shard.stats) (b : Shard.stats) =
  Shard.
    {
      rounds = a.rounds + b.rounds;
      messages = a.messages + b.messages;
      controls_fired = a.controls_fired + b.controls_fired;
      per_shard_events = Array.map2 ( + ) a.per_shard_events b.per_shard_events;
      per_shard_busy_s = Array.map2 ( +. ) a.per_shard_busy_s b.per_shard_busy_s;
      wall_s = a.wall_s +. b.wall_s;
      domains_used = max a.domains_used b.domains_used;
    }

type base = {
  b_wall : float;
  b_events : int;
  b_slice_ns : float array;  (** Host ns per event in each tenth. *)
  b_stats : Shard.stats option;
  b_digest : string;
  b_ok : bool;
  b_minor_words : float;
  b_alloc_words : float;  (** Minor plus direct major, less promoted. *)
  b_majors : int;
}

let allocated (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

(* An untraced pass run in [base_slices] slices of simulated time. *)
let base_pass ~parallel (w : Workloads.t) =
  let p = Workloads.build w in
  Gc.compact ();
  let dur = Workloads.duration w in
  let slice_ns = Array.make base_slices nan in
  let stats = ref None and wall = ref 0. and before = ref 0 in
  let gc0 = Gc.quick_stat () in
  let ok =
    try
      for k = 1 to base_slices do
        let until = dur *. float_of_int k /. float_of_int base_slices in
        let st, s =
          Spans.with_span ~layer:"engine"
            (Printf.sprintf "run slice %d" k)
            (fun () ->
              Host.time (fun () ->
                  Workloads.advance ~parallel ~clock:Host.now w p ~until))
        in
        wall := !wall +. s;
        let ev = Workloads.events p in
        if ev > !before then
          slice_ns.(k - 1) <- s *. 1e9 /. float_of_int (ev - !before);
        before := ev;
        stats :=
          (match (!stats, st) with
          | None, x | x, None -> x
          | Some a, Some b -> Some (sum_stats a b))
      done;
      Workloads.conservation w p = None
    with e ->
      Printf.eprintf "base pass failed: %s\n%!" (Printexc.to_string e);
      false
  in
  let gc1 = Gc.quick_stat () in
  {
    b_minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    b_alloc_words = allocated gc1 -. allocated gc0;
    b_majors = gc1.Gc.major_collections - gc0.Gc.major_collections;
    b_wall = !wall;
    b_events = Workloads.events p;
    b_slice_ns = slice_ns;
    b_stats = !stats;
    b_digest = (if ok then Workloads.digest p else "");
    b_ok = ok;
  }

(* Host ns per event in the last tenth of simulated time that ran any
   event, over the same in the second tenth. *)
let slice_growth b =
  let last = ref nan in
  Array.iter (fun v -> if not (Float.is_nan v) then last := v) b.b_slice_ns;
  !last /. b.b_slice_ns.(1)

let is_tcp (f : Scenario.flow) =
  match Transport.of_name f.Scenario.transport with
  | Ok (Transport.Tcp _) -> true
  | _ -> false

let out_dir = ".bench_out"

let traced (w : Workloads.t) =
  let sharded = match w.Workloads.shape with Workloads.Sharded _ -> true | _ -> false in
  let dur = Workloads.duration w in
  let root_metrics =
    Spans.with_span ~layer:"bench" ("traced " ^ w.Workloads.name) @@ fun () ->
    let cal_s =
      Spans.with_span ~layer:"host" "host.cal" (fun () ->
          Host.median [ Host.kernel_s (); Host.kernel_s (); Host.kernel_s () ])
    in
    let build_s =
      Spans.with_span ~layer:"scenario" "scenario.build (set-up)" (fun () ->
          Workloads.setup_s w)
    in
    (* Untraced: the timed mode (parallel on a hub), then, for a hub,
       the sequential mode a traced run is forced into. *)
    let base = Spans.with_span ~layer:"bench" "base pass" (fun () -> base_pass ~parallel:true w) in
    let seq =
      if sharded then
        Spans.with_span ~layer:"bench" "sequential base pass" (fun () ->
            base_pass ~parallel:false w)
      else base
    in
    (* Traced *)
    (* Queue-occupancy probes would add engine events; pushing the first
       one past the horizon keeps event counts, and so the digest, equal
       to the untraced passes'. Enqueue and drop records still carry the
       occupancy at every change. *)
    let col =
      Collector.create ~capacity:ring ~mask:Event.cat_all ~probe_interval:1e9 ()
    in
    let c = counts () in
    let p =
      Spans.with_span ~layer:"scenario" "scenario.build (traced)" (fun () ->
          Collector.install col;
          Workloads.build w)
    in
    let tcp = Hashtbl.create 8 in
    Array.iteri
      (fun i (f : Topology.built_flow) ->
        if is_tcp (List.nth w.Workloads.scenario.Scenario.flows i) then
          Hashtbl.replace tcp f.Topology.sender.Sender.flow ())
      (Workloads.flows p);
    let traced_s = ref 0. in
    let traced_ok =
      try
        for k = 1 to traced_slices do
          let until = dur *. float_of_int k /. float_of_int traced_slices in
          let _, s =
            Spans.with_span ~layer:"engine" (Printf.sprintf "traced slice %d" k)
              (fun () -> Host.time (fun () -> Workloads.advance w p ~until))
          in
          traced_s := !traced_s +. s;
          drain ~canonical:sharded c ~tcp col
        done;
        true
      with e ->
        Printf.eprintf "traced pass failed: %s\n%!" (Printexc.to_string e);
        false
    in
    Collector.uninstall ();
    let traced_digest = if traced_ok then Workloads.digest p else "" in
    let ok =
      [
        base.b_ok;
        seq.b_ok;
        traced_ok && Workloads.conservation w p = None;
        seq.b_digest = base.b_digest;
        traced_digest = base.b_digest;
      ]
    in
    Printf.printf "digest %s seed=%d %s\n%!" w.Workloads.name
      w.Workloads.scenario.Scenario.seed base.b_digest;
    if traced_digest <> base.b_digest then
      Printf.eprintf "traced digest %s differs from untraced %s\n%!" traced_digest
        base.b_digest;
    (* Public counters of the traced pass. *)
    let flows = Workloads.flows p and links = Workloads.links p in
    let tcp_sent = ref 0 and tcp_goodput_pkts = ref 0 and tcp_acks = ref 0 in
    let data_pkts = ref 0 in
    Array.iter
      (fun (f : Topology.built_flow) ->
        let rx = Receiver.received_pkts f.Topology.receiver in
        data_pkts := !data_pkts + rx;
        if Hashtbl.mem tcp f.Topology.sender.Sender.flow then begin
          tcp_acks := !tcp_acks + rx;
          tcp_sent := !tcp_sent + f.Topology.sender.Sender.sent_pkts ();
          tcp_goodput_pkts := !tcp_goodput_pkts + (Topology.goodput_bytes f / Units.mss)
        end)
      flows;
    let sum f = Array.fold_left (fun a l -> a + f l) 0 links in
    let bneck = w.Workloads.bottlenecks in
    let utilization =
      List.fold_left (fun a i -> a +. Link.busy_time links.(i)) 0. bneck
      /. (float_of_int (List.length bneck) *. dur)
    in
    let events = Workloads.events p in
    let first_link = List.hd w.Workloads.scenario.Scenario.links in
    (* Micro-benches, at the depth, window and rate this workload showed. *)
    let depth = max 1 (depth_p50 c) in
    let drive_engine =
      Spans.with_span ~layer:"engine" "engine.drive" (fun () ->
          engine_drive ~depth ~total:1_000_000)
    in
    let window = max 16 (min 20_000 (int_of_float c.cwnd_max)) in
    let holes = max 1 (min (window / 2) c.holes) in
    let drive_scoreboard =
      Spans.with_span ~layer:"tcp" "scoreboard.drive" (fun () ->
          scoreboard_drive ~window ~holes ~acks:(max 50_000 (100_000_000 / window)))
    in
    let rate =
      if c.mis > 0 then c.mi_rate_sum /. float_of_int c.mis
      else first_link.Scenario.bandwidth
    in
    let drive_monitor =
      Spans.with_span ~layer:"pcc" "monitor.drive" (fun () ->
          monitor_drive ~rate ~rtt:(2. *. first_link.Scenario.delay) ~pkts:300_000)
    in
    let drive_queue =
      Spans.with_span ~layer:"link" "queue.drive" (fun () ->
          queue_drive ~capacity:first_link.Scenario.buffer
            ~depth:(int_of_float c.queue_max) ~pkts:2_000_000)
    in
    (* Last: the probe's second domain takes part in the collector
       while it runs, which would perturb the GC counts of the passes. *)
    let parallelism =
      Spans.with_span ~layer:"host" "host.parallelism" Host.parallelism
    in
    let shard =
      match base.b_stats with
      | None -> [ 0.; 0.; 0.; 0.; 0.; 0. ]
      | Some st ->
        let n = Array.length st.Shard.per_shard_events in
        let ev = Array.fold_left ( + ) 0 st.Shard.per_shard_events in
        let busy = Array.fold_left ( +. ) 0. st.Shard.per_shard_busy_s in
        let worst = Array.fold_left max 0 st.Shard.per_shard_events in
        let rounds = float_of_int (max 1 st.Shard.rounds) in
        [
          float_of_int st.Shard.rounds;
          float_of_int st.Shard.messages /. rounds;
          float_of_int st.Shard.rounds /. dur;
          float_of_int ev /. rounds /. float_of_int n;
          busy /. (float_of_int (max 1 st.Shard.domains_used) *. st.Shard.wall_s);
          float_of_int worst /. (float_of_int ev /. float_of_int n);
        ]
    in
    let fi = float_of_int in
    ( List.for_all Fun.id ok,
      List.length ok,
      List.length (List.filter not ok),
      [
        ("engine.events", fi events, "count");
        ("engine.events_per_pkt", fi events /. fi (max 1 !data_pkts), "ratio");
        ("engine.ns_per_event", base.b_wall *. 1e9 /. fi base.b_events, "ns");
        ("engine.pending_p50", fi (depth_p50 c), "count");
        ("engine.pending_max", fi c.depth_max, "count");
        ("engine.slice_growth", slice_growth base, "ratio");
        ("engine.drive_ns_per_event", drive_engine, "ns");
        ("tcp.acks", fi !tcp_acks, "count");
        ("tcp.loss_cuts", fi c.loss_cuts, "count");
        ("tcp.rto", fi c.rto, "count");
        ( "tcp.retx_frac",
          (if !tcp_sent = 0 then 0.
           else 1. -. (fi !tcp_goodput_pkts /. fi !tcp_sent)),
          "fraction" );
        ("scoreboard.drive_ns_per_ack", drive_scoreboard, "ns");
        ("pcc.mis", fi c.mis, "count");
        ("pcc.mi_discards", fi c.mi_discards, "count");
        ("pcc.rate_changes", fi c.rate_changes, "count");
        ("pcc.gradient_steps", fi c.gradient_steps, "count");
        ("pcc.utility_switches", fi c.utility_switches, "count");
        ("monitor.drive_ns_per_pkt", drive_monitor, "ns");
        ("link.offered", fi (sum Link.offered_pkts), "count");
        ("link.delivered", fi (sum Link.delivered_pkts), "count");
        ("link.drops", fi (sum (fun l -> (Link.queue l).Queue_disc.drops ())), "count");
        ("link.channel_losses", fi (sum Link.channel_losses), "count");
        ("link.utilization", utilization, "fraction");
        ("queue.max_bytes", c.queue_max, "bytes");
        ("queue.drive_ns_per_pkt", drive_queue, "ns");
      ]
      @ List.map2
          (fun (n, u) v -> (n, v, u))
          [
            ("shard.rounds", "count");
            ("shard.msgs_per_round", "ratio");
            ("shard.rounds_per_sim_s", "1/s");
            ("shard.events_per_window_per_shard", "count");
            ("shard.busy_frac", "fraction");
            ("shard.balance", "ratio");
          ]
          shard
      @ [
          ("scenario.flows", fi (Array.length flows), "count");
          ("scenario.links", fi (Array.length links), "count");
          ("scenario.build_s", build_s, "s");
          ("gc.minor_mw", seq.b_minor_words /. 1e6, "Mwords");
          ("gc.major_collections", fi seq.b_majors, "count");
          ( "gc.alloc_bytes_per_event",
            seq.b_alloc_words *. fi (Sys.word_size / 8) /. fi seq.b_events,
            "B" );
          ("trace.emitted", fi c.emitted, "count");
          ("trace.dropped", fi c.dropped, "count");
          ("trace.overhead_frac", (!traced_s /. seq.b_wall) -. 1., "fraction");
          ("trace.export_s", c.export_s, "s");
          ("host.wall_s", base.b_wall, "s");
          ("host.cal_s", cal_s, "s");
          ("host.parallelism", parallelism, "ratio");
        ] )
  in
  (try
     if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
     let path =
       Filename.concat out_dir
         (Printf.sprintf "spans-%s-seed%d.json" w.Workloads.name
            w.Workloads.scenario.Scenario.seed)
     in
     Spans.write path;
     Printf.printf "spans %s\n" path
   with Sys_error e -> Printf.eprintf "could not write spans: %s\n%!" e);
  root_metrics
