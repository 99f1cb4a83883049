(* The benchmark's workloads. Each is one [Scenario.t] — the description
   every tool in the repository consumes — plus the shape it runs on and
   the links whose capacity its goodput is measured against. This module
   also builds and advances one pass of a workload, digests its outcome
   and checks its outputs. *)

open Pcc_sim
open Pcc_net
open Pcc_scenario

type shape =
  | Engine  (** One engine, [Scenario.build]. *)
  | Sharded of int
      (** [Scenario.build_sharded] on a hub of that many shards, timed
          passes in [Shard.Parallel] with as many domains. *)

type t = {
  name : string;
  scenario : Scenario.t;
  shape : shape;
  bottlenecks : int list;
      (** Link indices whose capacity the workload's goodput shares. *)
}

let names = [ "sat-recovery"; "dumbbell-mix"; "clusters-2shard" ]

let link ?(loss = 0.) ~src ~dst ~bandwidth ~delay ~buffer () =
  Scenario.
    {
      src;
      dst;
      bandwidth;
      delay;
      buffer;
      queue = Topology.Droptail;
      loss;
      jitter = 0.;
    }

let flow ?(start_at = 0.) ?size ?(extra_rtt = 0.) ~route transport =
  Scenario.
    {
      transport;
      route;
      rev_route = None;
      rev_lossy = true;
      start_at;
      stop_at = None;
      size;
      extra_rtt;
    }

let scenario ~seed ~duration links flows =
  Scenario.
    { seed; duration; links; flows; faults = []; cross = []; dynamics = None }

(* The Fig. 6 satellite path: 42 Mbps, 800 ms RTT, 1 MB buffer. Each
   variant runs solo on its own copy of the path inside one engine.
   Illinois, CUBIC and NewReno see the paper's 0.74% channel loss, so the
   seed drives their loss streams. Hybla's copy has no channel loss: its
   rho^2-inflated window then overflows the buffer on every cycle and
   leaves thousands of young holes in every seed. At 0.74% loss whether
   that happens within a pass is a per-seed lottery (README.md). *)
let sat_recovery ~seed =
  let variants =
    [ ("hybla", 0.); ("illinois", 0.0074); ("cubic", 0.0074); ("newreno", 0.0074) ]
  in
  let links =
    List.mapi
      (fun i (_, loss) ->
        link ~loss ~src:(2 * i) ~dst:((2 * i) + 1) ~bandwidth:(Units.mbps 42.)
          ~delay:0.4 ~buffer:1_000_000 ())
      variants
  in
  let flows =
    List.mapi (fun i (v, _) -> flow ~route:[ 2 * i; (2 * i) + 1 ] v) variants
  in
  {
    name = "sat-recovery";
    scenario = scenario ~seed ~duration:8. links flows;
    shape = Engine;
    bottlenecks = List.mapi (fun i _ -> i) variants;
  }

(* Three PCC controller families, a Proteus scavenger and two TCP
   baselines sharing one 100 Mbps / 30 ms bottleneck with a 1-BDP buffer
   and 0.1% loss: cost spread over the engine, link, delay lines,
   receivers and the PCC monitor/controller, TCP mostly on its hole-free
   path. Some seeds still send TCP into deep-hole episodes; sixty
   simulated seconds average part of that out. *)
let dumbbell_mix ~seed =
  let bandwidth = Units.mbps 100. and rtt = 0.03 in
  let links =
    [
      link ~loss:0.001 ~src:0 ~dst:1 ~bandwidth ~delay:(rtt /. 2.)
        ~buffer:(Units.bdp_bytes ~rate:bandwidth ~rtt) ();
    ]
  in
  let transports =
    [
      "pcc"; "pcc-vivace"; "pcc-proteus"; "pcc-proteus-scavenger"; "cubic";
      "newreno";
    ]
  in
  {
    name = "dumbbell-mix";
    scenario =
      scenario ~seed ~duration:60. links
        (List.map (fun t -> flow ~route:[ 0; 1 ] t) transports);
    shape = Engine;
    bottlenecks = [ 0 ];
  }

(* The clustered fan-in of [bench --shards]: four 10 Gbps / 10 ms
   dumbbells with 500 sized PCC flows each, chained by 1 ms links that
   carry four 3-hop flows apiece. Every flow has finished by 0.8
   simulated seconds. *)
let clusters_2shard ~seed =
  let clusters = 4 and total = 2_000 and size = 200_000 in
  let bandwidth = Units.gbps 10. and rtt = 0.01 in
  let bdp = Units.bdp_bytes ~rate:bandwidth ~rtt in
  let head c = 2 * c and tail c = (2 * c) + 1 in
  let intra =
    List.init clusters (fun c ->
        link ~src:(head c) ~dst:(tail c) ~bandwidth ~delay:(rtt /. 2.)
          ~buffer:bdp ())
  in
  let inter =
    List.init (clusters - 1) (fun c ->
        link ~src:(tail c) ~dst:(head (c + 1)) ~bandwidth ~delay:0.001
          ~buffer:bdp ())
  in
  let per = total / clusters in
  let local =
    List.init total (fun k ->
        flow
          ~start_at:(0.5 *. float_of_int k /. float_of_int total)
          ~size
          ~extra_rtt:(rtt *. float_of_int (k mod 64) /. 64.)
          ~route:[ head (k / per); tail (k / per) ]
          "pcc")
  in
  let crossing =
    List.concat
      (List.init (clusters - 1) (fun c ->
           List.init 4 (fun i ->
               flow
                 ~start_at:(0.1 *. float_of_int (i + 1))
                 ~size
                 ~route:[ head c; tail c; head (c + 1); tail (c + 1) ]
                 "pcc")))
  in
  {
    name = "clusters-2shard";
    scenario = scenario ~seed ~duration:1. (intra @ inter) (local @ crossing);
    shape = Sharded 2;
    bottlenecks = List.init clusters Fun.id;
  }

let find name ~seed =
  match name with
  | "sat-recovery" -> Some (sat_recovery ~seed)
  | "dumbbell-mix" -> Some (dumbbell_mix ~seed)
  | "clusters-2shard" -> Some (clusters_2shard ~seed)
  | _ -> None

let duration w = w.scenario.Scenario.duration

(* ------------------------------------------------------------------ *)
(* One pass *)

type pass = {
  topo : Topology.t;
  hub : Shard.t option;
  engine : Engine.t;  (** The only engine, or shard 0's. *)
}

(* [shards] overrides the workload's own shard count; the reference pass
   of a sharded workload uses 1. *)
let build ?shards w =
  match w.shape with
  | Engine ->
    let engine = Engine.create () in
    let b = Scenario.build engine w.scenario in
    { topo = b.Scenario.topo; hub = None; engine }
  | Sharded n ->
    let hub = Shard.create ~shards:(Option.value shards ~default:n) () in
    let b = Scenario.build_sharded hub w.scenario in
    { topo = b.Scenario.topo; hub = Some hub; engine = Shard.engine hub 0 }

(* Set-up time: the mean host seconds of [setup_builds w] builds in a
   row, about 0.2 s of building. A build allocates a 1.6 MB scheduler
   array from the C allocator, and whether it faults in fresh pages
   depends on the allocator's state, which steps through the same
   sequence in every process: single builds are bimodal, the mean over a
   fixed sequence is not, and 0.2 s averages over the host's moment. *)
let setup_builds w = match w.shape with Engine -> 128 | Sharded _ -> 6

let setup_s w =
  let n = setup_builds w in
  let (), s =
    Host.time (fun () ->
        for _ = 1 to n do
          ignore (build w)
        done)
  in
  s /. float_of_int n

let domains w = match w.shape with Engine -> 1 | Sharded n -> n

(* Advance to [until]. [parallel] selects [Shard.Parallel] on a sharded
   pass; [clock] turns on the hub's busy/wall accounting. *)
let advance ?(parallel = false) ?clock w p ~until =
  match p.hub with
  | None ->
    Engine.run ~until p.engine;
    None
  | Some hub ->
    let mode = if parallel then Shard.Parallel (domains w) else Shard.Sequential in
    Some (Shard.run_stats ~mode ?clock hub ~until)

let events p =
  match p.hub with Some h -> Shard.executed h | None -> Engine.executed p.engine

let flows p = Topology.flows p.topo
let links p = Topology.links p.topo

let goodput_bytes p =
  Array.fold_left (fun a f -> a + Topology.goodput_bytes f) 0 (flows p)

let capacity_bits w =
  let links = Array.of_list w.scenario.Scenario.links in
  List.fold_left
    (fun a i -> a +. (links.(i).Scenario.bandwidth *. duration w))
    0. w.bottlenecks

let goodput_frac w p = float_of_int (8 * goodput_bytes p) /. capacity_bits w

(* Every simulated statistic the pass exposes publicly, hashed: flows'
   goodput, receptions, sends and completion-time bits, links' counters
   and the event count. Two passes of one workload and seed must agree,
   at any shard count and execution mode. *)
let digest p =
  let b = Buffer.create 4096 in
  Array.iter
    (fun (f : Topology.built_flow) ->
      Printf.bprintf b "f %d %d %d %s\n" (Topology.goodput_bytes f)
        (Receiver.received_pkts f.Topology.receiver)
        (f.Topology.sender.Sender.sent_pkts ())
        (match f.Topology.fct with Some v -> Printf.sprintf "%h" v | None -> "-"))
    (flows p);
  Array.iter
    (fun l ->
      Printf.bprintf b "l %d %d %d %d %d\n" (Link.offered_pkts l)
        (Link.delivered_pkts l) (Link.delivered_bytes l) (Link.channel_losses l)
        ((Link.queue l).Queue_disc.drops ()))
    (links p);
  Printf.bprintf b "events %d\n" (events p);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Per-link and per-flow conservation at the end of a pass: a link
   delivers no more than it was offered (plus duplicates) and no more
   bits than its bandwidth carries in the simulated duration; a flow's
   goodput fits through the slowest link of its route; all goodput fits
   through the bottlenecks. [None] when every check holds. *)
let conservation w p =
  let dur = duration w in
  let slack = float_of_int (8 * Units.mss) in
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  Array.iteri
    (fun i l ->
      if Link.delivered_pkts l > Link.offered_pkts l + Link.duplicated_pkts l
      then fail "link %d delivered more packets than offered" i;
      let bits =
        float_of_int (8 * (Link.delivered_bytes l - Link.duplicated_bytes l))
      in
      if bits > (Link.bandwidth l *. dur) +. slack then
        fail "link %d delivered above capacity" i)
    (links p);
  Array.iteri
    (fun i (f : Topology.built_flow) ->
      let slowest =
        List.fold_left
          (fun a l -> Float.min a (Link.bandwidth (Topology.link_at p.topo l)))
          infinity
          (Topology.route_links p.topo ~flow:i)
      in
      if float_of_int (8 * Topology.goodput_bytes f) > (slowest *. dur) +. slack
      then fail "flow %d goodput above its route's capacity" i)
    (flows p);
  if float_of_int (8 * goodput_bytes p) > capacity_bits w +. slack then
    fail "goodput above bottleneck capacity";
  match !fails with [] -> None | l -> Some (String.concat "; " (List.rev l))
