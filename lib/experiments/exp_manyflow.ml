open Pcc_sim
open Pcc_scenario

(* Scheduler/pooling stress scenario: a large fan-in of PCC flows over
   one shared bottleneck. Unlike the paper experiments, the interesting
   output is not a protocol comparison but that the simulator sustains
   tens of thousands of concurrent flows — hundreds of thousands of
   pending timers — and stays deterministic while doing so. The table
   is pure simulation state (no wall-clock), so a fixed seed must
   render byte-identically on every run. *)

type row = {
  flows : int;
  completed : int;
  goodput_mbps : float;  (** aggregate, over the last completion *)
  mean_fct : float;
  peak_pending : int;  (** high-water mark of queued events *)
  events : int;
}

let default_bandwidth = Units.gbps 10.
let default_rtt = 0.01
let flow_size = 200_000

(* Flow starts are staggered over half a second and RTTs spread over a
   small band so the event queue never degenerates into one synchronized
   burst — the population is what stresses the scheduler, not a single
   instant. Everything is a pure function of [n], so the scenario is
   deterministic for a fixed seed. *)
let fanin_spec ~n ~bandwidth ~rtt =
  let bdp = Units.bdp_bytes ~rate:bandwidth ~rtt in
  let links =
    [
      Topology.link ~name:"fanin" ~delay:(rtt /. 2.) ~buffer:bdp ~src:0 ~dst:1
        ~bandwidth ();
    ]
  in
  let fn = float_of_int n in
  let flows =
    List.init n (fun i ->
        Topology.flow
          ~start_at:(0.5 *. float_of_int i /. fn)
          ~size:flow_size
          ~extra_rtt:(rtt *. float_of_int (i mod 64) /. 64.)
          ~route:[ 0; 1 ] (Transport.pcc ()))
  in
  (links, flows)

let topology engine ~rng ~n ~bandwidth ~rtt =
  let links, flows = fanin_spec ~n ~bandwidth ~rtt in
  Topology.build engine ~rng ~links ~flows ()

let topology_sharded hub ~rng ~n ~bandwidth ~rtt =
  let links, flows = fanin_spec ~n ~bandwidth ~rtt in
  Topology.build_sharded hub ~rng ~links ~flows ()

(* Clustered fan-in: [clusters] self-contained dumbbells whose local
   populations never leave their cluster, chained by 1 ms inter-cluster
   links carrying a handful of 3-hop flows. The inter-cluster delay is
   well above the partitioner's minimum cut, so a hub spreads the
   clusters over its shards with only the thin chain links as boundary
   channels — the shape the sharded engine is built for. *)
let inter_cluster_delay = 0.001
let inter_flows_per_link = 4

let clustered_spec ~clusters ~n ~bandwidth ~rtt =
  if clusters < 1 then
    invalid_arg "Exp_manyflow.clustered_spec: clusters must be >= 1";
  let bdp = Units.bdp_bytes ~rate:bandwidth ~rtt in
  let head c = 2 * c and tail c = (2 * c) + 1 in
  let intra =
    List.init clusters (fun c ->
        Topology.link
          ~name:(Printf.sprintf "fanin%d" c)
          ~delay:(rtt /. 2.) ~buffer:bdp ~src:(head c) ~dst:(tail c)
          ~bandwidth ())
  in
  let inter =
    List.init (clusters - 1) (fun c ->
        Topology.link
          ~name:(Printf.sprintf "xlink%d" c)
          ~delay:inter_cluster_delay ~buffer:bdp ~src:(tail c)
          ~dst:(head (c + 1))
          ~bandwidth ())
  in
  let per = max 1 (n / clusters) in
  let fn = float_of_int (per * clusters) in
  let local_flows =
    List.concat
      (List.init clusters (fun c ->
           List.init per (fun i ->
               let k = (c * per) + i in
               Topology.flow
                 ~label:(Printf.sprintf "c%d-f%d" c i)
                 ~start_at:(0.5 *. float_of_int k /. fn)
                 ~size:flow_size
                 ~extra_rtt:(rtt *. float_of_int (k mod 64) /. 64.)
                 ~route:[ head c; tail c ] (Transport.pcc ()))))
  in
  let inter_flows =
    List.concat
      (List.init (clusters - 1) (fun c ->
           List.init inter_flows_per_link (fun i ->
               Topology.flow
                 ~label:(Printf.sprintf "x%d-f%d" c i)
                 ~start_at:(0.1 *. float_of_int (i + 1))
                 ~size:flow_size
                 ~route:[ head c; tail c; head (c + 1); tail (c + 1) ]
                 (Transport.pcc ()))))
  in
  (intra @ inter, local_flows @ inter_flows)

let clustered_topology hub ~rng ~clusters ~n ~bandwidth ~rtt =
  let links, flows = clustered_spec ~clusters ~n ~bandwidth ~rtt in
  Topology.build_sharded hub ~rng ~links ~flows ()

let round ~seed ~n ~bandwidth ~rtt =
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let topo = topology engine ~rng ~n ~bandwidth ~rtt in
  let ideal =
    float_of_int (n * flow_size * 8) /. bandwidth
  in
  let horizon = 10. +. (8. *. ideal) in
  (* Sample the queue depth on a fixed grid: the samples are simulation
     events themselves, so the peak is deterministic for a fixed seed. *)
  let peak = ref 0 in
  let samples = int_of_float (horizon /. 0.05) in
  for k = 0 to samples do
    Engine.post engine
      ~at:(0.05 *. float_of_int k)
      (fun () -> peak := max !peak (Engine.pending engine))
  done;
  Engine.run ~until:horizon engine;
  let flows = Topology.flows topo in
  let completed = ref 0 and fct_sum = ref 0. and last_done = ref 0. in
  let bytes = ref 0 in
  Array.iter
    (fun (f : Topology.built_flow) ->
      bytes := !bytes + Topology.goodput_bytes f;
      match f.Topology.fct with
      | Some fct ->
        incr completed;
        fct_sum := !fct_sum +. fct;
        last_done := Float.max !last_done (f.Topology.def.Topology.start_at +. fct)
      | None -> ())
    flows;
  let row =
    {
      flows = n;
      completed = !completed;
      goodput_mbps =
        (if !last_done > 0. then
           float_of_int (!bytes * 8) /. !last_done /. 1e6
         else 0.);
      mean_fct =
        (if !completed > 0 then !fct_sum /. float_of_int !completed else nan);
      peak_pending = !peak;
      events = Engine.executed engine;
    }
  in
  (* Invariants: the run must actually finish (not stall at the horizon
     with most transfers dangling), stay inside the physical capacity,
     and exhibit real concurrency — each active flow holds at least one
     pending timer, so the peak queue depth of a genuine many-flow run
     cannot be small. *)
  if row.completed * 10 < n * 9 then
    failwith
      (Printf.sprintf "manyflow: only %d/%d flows completed" row.completed n);
  if row.goodput_mbps > 1.02 *. bandwidth /. 1e6 then
    failwith
      (Printf.sprintf "manyflow: goodput %.1f Mbps exceeds capacity"
         row.goodput_mbps);
  if row.peak_pending < n / 4 then
    failwith
      (Printf.sprintf "manyflow: peak pending %d events for %d flows"
         row.peak_pending n);
  row

let flows_for_scale scale = max 50 (int_of_float ((10_000. *. scale) +. 0.5))

let tasks ?(scale = 1.) ?(seed = 42) ?flows () =
  let n = match flows with Some n -> n | None -> flows_for_scale scale in
  [
    Exp_common.task ~seed
      ~label:(Printf.sprintf "manyflow/n=%d" n)
      (fun () ->
        round ~seed ~n ~bandwidth:default_bandwidth ~rtt:default_rtt);
  ]

let run ?pool ?policy ?scale ?seed ?flows () =
  Exp_common.run_tasks_opt ?pool ?policy (tasks ?scale ?seed ?flows ())
  |> Exp_common.present

let table rows =
  Exp_common.
    {
      title = "Many-flow fan-in (10 Gbps shared bottleneck; scheduler stress)";
      header =
        [ "flows"; "completed"; "Mbps"; "mean FCT s"; "peak pending"; "events" ];
      rows =
        List.map
          (fun r ->
            [
              string_of_int r.flows;
              string_of_int r.completed;
              mbps r.goodput_mbps;
              f2 r.mean_fct;
              string_of_int r.peak_pending;
              string_of_int r.events;
            ])
          rows;
      note =
        Some
          "Not a paper figure: scale proof for the timing-wheel scheduler \
           and pooled packet path. Output is simulation state only, so a \
           fixed seed renders it byte-identically on every run.";
    }

let print ?pool ?scale ?seed () =
  Exp_common.print_table (table (run ?pool ?scale ?seed ()))

(* ------------------------------------------------------------------ *)
(* Sharded clustered fan-in ("shardflow"): the same seeded scenario on a
   1-shard and an N-shard hub, with the 1-vs-N digest identity asserted
   inside the round — the experiment table doubles as a determinism
   check every `pcc_sim run` exercises. *)

type shard_row = {
  s_shards : int;
  s_populated : int;  (** shards that actually executed events *)
  s_flows : int;
  s_completed : int;
  s_events : int;
  s_balance : float;  (** max/mean per-shard events, 1.0 = perfect *)
  s_identical : bool;  (** 1-shard vs N-shard digests matched *)
}

let shard_digest topo hub =
  let b = Buffer.create 1024 in
  Array.iteri
    (fun i (f : Topology.built_flow) ->
      Printf.bprintf b "f%d g=%d fct=%s\n" i (Topology.goodput_bytes f)
        (match f.Topology.fct with
        | Some v -> Printf.sprintf "%h" v
        | None -> "-"))
    (Topology.flows topo);
  Printf.bprintf b "events=%d" (Shard.executed hub);
  Buffer.contents b

let shard_flows_for_scale scale = max 64 (int_of_float ((2_000. *. scale) +. 0.5))

let shard_round ~seed ~shards ~clusters ~n ~bandwidth ~rtt =
  let per = max 1 (n / clusters) in
  let ideal = float_of_int (per * flow_size * 8) /. bandwidth in
  let horizon = 10. +. (8. *. ideal) in
  let one shards =
    let hub = Shard.create ~shards () in
    let rng = Rng.create seed in
    let topo = clustered_topology hub ~rng ~clusters ~n ~bandwidth ~rtt in
    Shard.run hub ~until:horizon;
    (hub, topo)
  in
  let hub1, topo1 = one 1 in
  (* A lane failure in the N-shard attempt walks the degradation ladder
     (rebuilding from the seed at each narrower width) instead of
     failing the task; the supervisor accounts the steps as [degraded].
     The byte-identical contract keeps the digest check meaningful at
     whatever width finally succeeded. *)
  let degraded =
    Degrade.run
      ~plan:(Degrade.plan ~shards ())
      (fun (a : Degrade.attempt) -> one a.Degrade.shards)
  in
  let hubn, topon = degraded.Degrade.value in
  let identical = String.equal (shard_digest topo1 hub1) (shard_digest topon hubn) in
  if not identical then
    failwith
      (Printf.sprintf
         "shardflow: 1-shard and %d-shard digests differ (seed %d, %d flows)"
         degraded.Degrade.attempt.Degrade.shards seed n);
  let flows = Topology.flows topon in
  let completed =
    Array.fold_left
      (fun a (f : Topology.built_flow) ->
        if f.Topology.fct <> None then a + 1 else a)
      0 flows
  in
  if completed * 10 < Array.length flows * 9 then
    failwith
      (Printf.sprintf "shardflow: only %d/%d flows completed" completed
         (Array.length flows));
  let per_shard =
    match Shard.last_stats hubn with
    | Some st -> st.Shard.per_shard_events
    | None -> [||]
  in
  let populated = Array.fold_left (fun a e -> if e > 0 then a + 1 else a) 0 per_shard in
  let balance =
    if populated = 0 then 1.
    else begin
      let busy = Array.to_list per_shard |> List.filter (fun e -> e > 0) in
      let mx = List.fold_left max 0 busy in
      let mean =
        float_of_int (List.fold_left ( + ) 0 busy) /. float_of_int populated
      in
      if mean > 0. then float_of_int mx /. mean else 1.
    end
  in
  {
    s_shards = shards;
    s_populated = populated;
    s_flows = Array.length flows;
    s_completed = completed;
    s_events = Shard.executed hubn;
    s_balance = balance;
    s_identical = identical;
  }

let shard_tasks ?(scale = 1.) ?(seed = 42) ?(shards = 4) () =
  let n = shard_flows_for_scale scale in
  [
    Exp_common.task ~seed
      ~label:(Printf.sprintf "shardflow/n=%d" n)
      (fun () ->
        shard_round ~seed ~shards ~clusters:4 ~n ~bandwidth:default_bandwidth
          ~rtt:default_rtt);
  ]

let run_sharded ?pool ?policy ?scale ?seed ?shards () =
  Exp_common.run_tasks_opt ?pool ?policy (shard_tasks ?scale ?seed ?shards ())
  |> Exp_common.present

let shard_table rows =
  Exp_common.
    {
      title = "Sharded clustered fan-in (4 clusters; 1-vs-N digest identity)";
      header =
        [ "shards"; "populated"; "flows"; "completed"; "events"; "balance";
          "identical" ];
      rows =
        List.map
          (fun r ->
            [
              string_of_int r.s_shards;
              string_of_int r.s_populated;
              string_of_int r.s_flows;
              string_of_int r.s_completed;
              string_of_int r.s_events;
              f2 r.s_balance;
              (if r.s_identical then "yes" else "NO");
            ])
          rows;
      note =
        Some
          "Not a paper figure: determinism proof for the sharded engine. \
           The round fails outright if the 1-shard and N-shard runs of \
           the same seed diverge in any float bit or event count.";
    }
