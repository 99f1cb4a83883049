(* pcc_sim — run ad-hoc congestion-control scenarios from the command
   line.

     pcc_sim run --transport pcc --transport cubic --bw 100 --rtt 30 \
       --loss 0.01 --duration 60
     pcc_sim game --senders 10
     pcc_sim list                                                          *)

open Cmdliner
open Pcc_sim
open Pcc_scenario

let transport_of_string s =
  match Transport.of_name s with
  | Ok t -> Ok t
  | Error msg -> Error (`Msg msg)

let transport_conv =
  let parse s = transport_of_string s in
  let print fmt t = Format.pp_print_string fmt (Transport.name t) in
  Arg.conv (parse, print)

(* ------------------------------------------------------------------ *)

let queue_of_string = function
  | "droptail" -> Some Path.Droptail
  | "codel" -> Some Path.Codel
  | "red" -> Some Path.Red
  | "infinite" -> Some Path.Infinite
  | "fq" -> Some (Path.Fq Path.Droptail)
  | "fq-codel" -> Some (Path.Fq Path.Codel)
  | _ -> None

let run_cmd transports bw_mbps rtt_ms loss rev_loss jitter_ms buffer_kb queue
    duration seed interval check_invariants =
  Pcc_experiments.Cli_validate.(
    guarded
      [
        positive_f "--bw" bw_mbps;
        positive_f "--rtt" rtt_ms;
        probability "--loss" loss;
        probability "--rev-loss" rev_loss;
        non_negative_f "--jitter" jitter_ms;
        opt positive_i "--buffer" buffer_kb;
        (match queue_of_string queue with
        | Some _ -> Ok ()
        | None ->
          Error
            (Printf.sprintf "error: unknown queue discipline %s (see pcc_sim list)"
               queue));
        positive_f "--duration" duration;
        positive_f "--interval" interval;
      ])
  @@ fun () ->
  let bandwidth = Units.mbps bw_mbps in
  let rtt = rtt_ms /. 1000. in
  let buffer =
    match buffer_kb with
    | Some kb -> kb * 1000
    | None -> Units.bdp_bytes ~rate:bandwidth ~rtt
  in
  let queue_kind = Option.get (queue_of_string queue) in
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let path =
    Path.build engine ~rng ~bandwidth ~rtt ~buffer ~queue:queue_kind ~loss
      ~rev_loss ~jitter:(jitter_ms /. 1000.)
      ~flows:(List.map (fun t -> Path.flow t) transports)
      ()
  in
  if check_invariants then ignore (Invariant.attach_path path);
  let flows = Path.flows path in
  Printf.printf
    "link: %.1f Mbps, %.1f ms RTT, %d KB %s buffer, loss %.3f%%\n" bw_mbps
    rtt_ms (buffer / 1000) queue (loss *. 100.);
  Printf.printf "%8s" "time";
  Array.iter
    (fun f -> Printf.printf " %14s" f.Path.def.Path.label)
    flows;
  Printf.printf "\n";
  let last = Array.make (Array.length flows) 0 in
  let steps = int_of_float (duration /. interval) in
  for i = 1 to steps do
    Engine.run ~until:(float_of_int i *. interval) engine;
    Printf.printf "%7.1fs" (float_of_int i *. interval);
    Array.iteri
      (fun j f ->
        let b = Path.goodput_bytes f in
        Printf.printf " %9.2f Mbps"
          (float_of_int ((b - last.(j)) * 8) /. interval /. 1e6);
        last.(j) <- b)
      flows;
    Printf.printf "\n%!"
  done;
  Printf.printf "\naverages over the full run:\n";
  Array.iter
    (fun f ->
      Printf.printf "  %-14s %8.2f Mbps (srtt %.1f ms)\n"
        f.Path.def.Path.label
        (float_of_int (Path.goodput_bytes f * 8) /. duration /. 1e6)
        (f.Path.sender.Pcc_net.Sender.srtt () *. 1e3))
    flows;
  `Ok ()

let chaos_cmd transport bw_mbps rtt_ms duration seed rate check_invariants =
  Pcc_experiments.Cli_validate.(
    guarded
      [
        positive_f "--bw" bw_mbps;
        positive_f "--rtt" rtt_ms;
        positive_f "--duration" duration;
        positive_f "--rate" rate;
      ])
  @@ fun () ->
  try
  let bandwidth = Units.mbps bw_mbps in
  let rtt = rtt_ms /. 1000. in
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let fault_rng = Rng.split rng in
  let path =
    Path.build engine ~rng ~bandwidth ~rtt
      ~buffer:(Units.bdp_bytes ~rate:bandwidth ~rtt)
      ~flows:[ Path.flow transport ]
      ()
  in
  if check_invariants then ignore (Invariant.attach_path path);
  let f = (Path.flows path).(0) in
  let recorder =
    Pcc_metrics.Recorder.create engine ~interval:0.25 (fun () ->
        float_of_int (Path.goodput_bytes f))
  in
  let schedule = Fault.chaos ~rng:fault_rng ~rate ~duration () in
  Fault.inject_path path schedule;
  Printf.printf
    "chaos gauntlet: %s on %.1f Mbps / %.1f ms RTT, seed %d, %d faults\n\n"
    f.Path.def.Path.label bw_mbps rtt_ms seed (List.length schedule);
  Format.printf "%a@." Fault.pp_schedule schedule;
  Engine.run ~until:duration engine;
  let series = Pcc_metrics.Recorder.rates_bps recorder in
  let reports =
    Pcc_metrics.Recovery.analyze ~series (Fault.windows schedule)
  in
  Format.printf "%a" Pcc_metrics.Recovery.pp_table reports;
  let recovered =
    List.length
      (List.filter
         (fun r -> r.Pcc_metrics.Recovery.time_to_recover <> None)
         reports)
  in
  Printf.printf
    "\nmean goodput %.2f Mbps; recovered from %d/%d faults (>=90%% of \
     pre-fault throughput)\n"
    (float_of_int (Path.goodput_bytes f * 8) /. duration /. 1e6)
    recovered (List.length reports);
  `Ok ()
  with exn ->
    (* A chaos gauntlet that dies mid-run (engine livelock guard, event
       error, invariant violation) must report and exit nonzero, not
       dump a backtrace. *)
    `Error
      ( false,
        Printf.sprintf "error: chaos run failed: %s" (Printexc.to_string exn)
      )

(* Demo shapes for the graph topology layer. "dumbbell" is what `run`
   builds; "parking" and "revpath" are shapes the flat builders cannot
   express (asymmetric chain, congested ack path); "fanin-large" is the
   many-flow scheduler stress scenario ([--flows] sized PCC transfers
   over one bottleneck, reported in aggregate); "clusters" chains
   [--shards] fan-in dumbbells with slow inter-cluster links — the
   shape whose partition actually spreads over shards. With [hub] the
   graph is built sharded ({!Topology.build_sharded}); [engine] is only
   used monolithically. *)
let topo_shape ~engine ~hub ~rng ~bandwidth ~rtt ~flows_n transports shape =
  let bdp = Units.bdp_bytes ~rate:bandwidth ~rtt in
  let build ~links ~flows =
    match hub with
    | Some h -> Topology.build_sharded h ~rng ~links ~flows ()
    | None -> Topology.build engine ~rng ~links ~flows ()
  in
  match shape with
  | "fanin-large" ->
    Ok
      (match hub with
      | Some h ->
        Pcc_experiments.Exp_manyflow.topology_sharded h ~rng ~n:flows_n
          ~bandwidth ~rtt
      | None ->
        Pcc_experiments.Exp_manyflow.topology engine ~rng ~n:flows_n ~bandwidth
          ~rtt)
  | "clusters" -> (
    match hub with
    | None ->
      Error "shape clusters needs a hub; pass --shards N (e.g. --shards 4)"
    | Some h ->
      (* A fixed cluster count: the graph must not depend on the shard
         count, or cross-shard-count output comparisons would be
         comparing different simulations. *)
      Ok
        (Pcc_experiments.Exp_manyflow.clustered_topology h ~rng ~clusters:4
           ~n:flows_n ~bandwidth ~rtt))
  | "dumbbell" ->
    let links =
      [
        Topology.link ~name:"bottleneck" ~delay:(rtt /. 2.) ~buffer:bdp ~src:0
          ~dst:1 ~bandwidth ();
      ]
    in
    let flows = List.map (fun t -> Topology.flow ~route:[ 0; 1 ] t) transports in
    Ok (build ~links ~flows)
  | "parking" ->
    (* Asymmetric 3-hop parking lot: the middle hop is the narrowest. The
       first transport runs end to end; the rest take one-hop routes,
       spread round-robin, competing with the long flow hop-locally. *)
    let hop i frac =
      Topology.link
        ~name:(Printf.sprintf "hop%d" i)
        ~delay:(rtt /. 6.)
        ~buffer:(Units.bdp_bytes ~rate:(bandwidth *. frac) ~rtt)
        ~src:i ~dst:(i + 1)
        ~bandwidth:(bandwidth *. frac)
        ()
    in
    let links = [ hop 0 1.0; hop 1 0.5; hop 2 0.8 ] in
    let flows =
      List.mapi
        (fun i t ->
          if i = 0 then
            Topology.flow
              ~label:(Transport.name t ^ "-long")
              ~route:[ 0; 1; 2; 3 ] t
          else begin
            let e = (i - 1) mod 3 in
            Topology.flow
              ~label:(Printf.sprintf "%s-hop%d" (Transport.name t) e)
              ~route:[ e; e + 1 ] t
          end)
        transports
    in
    Ok (build ~links ~flows)
  | "revpath" ->
    (* Congested reverse path: acks share a link 100x narrower than the
       data direction, with a shallow buffer. *)
    let links =
      [
        Topology.link ~name:"forward" ~delay:(rtt /. 2.) ~buffer:bdp ~src:0
          ~dst:1 ~bandwidth ();
        Topology.link ~name:"ackpath" ~delay:(rtt /. 2.)
          ~buffer:(Units.kib 4) ~src:1 ~dst:0 ~bandwidth:(bandwidth /. 100.)
          ();
      ]
    in
    let flows =
      List.map
        (fun t -> Topology.flow ~route:[ 0; 1 ] ~rev_route:[ 1; 0 ] t)
        transports
    in
    Ok (build ~links ~flows)
  | other ->
    Error
      (Printf.sprintf
         "unknown shape %s (dumbbell, parking, revpath, fanin-large, clusters)"
         other)

(* Per-flow columns are unreadable past a handful of flows, so large
   populations (fanin-large, clusters) report aggregates per interval
   instead: completions, goodput, and the live event-queue depth. Event
   totals are hub-wide when the topology is sharded. *)
let topo_executed topo =
  match Topology.hub topo with
  | Some h -> Shard.executed h
  | None -> Engine.executed (Topology.engine topo)

let topo_pending topo =
  match Topology.hub topo with
  | Some h -> Shard.pending h
  | None -> Engine.pending (Topology.engine topo)

(* Sharded runs buffer their whole report and print it only on success,
   so a degradation-ladder retry can discard a half-written table and
   the final stdout stays byte-identical to a clean run; monolithic
   runs stream as before. [echo] is that sink, and [kout] its printf. *)
let kout echo fmt = Printf.ksprintf echo fmt

(* After a sharded run, one line of per-shard balance. The reporting
   loops drive [Topology.run] in interval slices and [Shard.last_stats]
   covers only the final slice, so the line reads the hub's lifetime
   counters and each engine's cumulative executed count instead. *)
let report_shard_balance ~echo topo =
  match Topology.hub topo with
  | None -> ()
  | Some h ->
    let per = Array.map Engine.executed (Shard.engines h) in
    let total = Array.fold_left ( + ) 0 per in
    let mean = float_of_int total /. float_of_int (Array.length per) in
    let worst = Array.fold_left max 0 per in
    kout echo
      "shards: %d; %d barrier rounds, %d boundary messages; per-shard events \
       [%s], balance %.2f (max/mean)\n"
      (Array.length per) (Shard.total_rounds h) (Shard.total_messages h)
      (String.concat "; " (Array.to_list (Array.map string_of_int per)))
      (if total = 0 then 1. else float_of_int worst /. mean)

let topo_report_aggregate ~echo ~mode ~clock ~duration ~interval topo =
  let flows = Topology.flows topo in
  let n = Array.length flows in
  let total_bytes () =
    Array.fold_left (fun a f -> a + Topology.goodput_bytes f) 0 flows
  in
  let completed () =
    Array.fold_left
      (fun a (f : Topology.built_flow) ->
        if f.Topology.fct <> None then a + 1 else a)
      0 flows
  in
  kout echo "\n%8s %10s %12s %14s %12s\n" "time" "completed" "agg Mbps"
    "total events" "pending";
  let last = ref 0 in
  let steps = int_of_float (duration /. interval) in
  for i = 1 to steps do
    Topology.run ~mode ?clock topo ~until:(float_of_int i *. interval);
    let b = total_bytes () in
    kout echo "%7.1fs %6d/%-4d %12.2f %14d %12d\n"
      (float_of_int i *. interval)
      (completed ()) n
      (float_of_int ((b - !last) * 8) /. interval /. 1e6)
      (topo_executed topo) (topo_pending topo);
    last := b
  done;
  kout echo "\n%d/%d flows completed; %.1f MB delivered; %d events executed\n"
    (completed ()) n
    (float_of_int (total_bytes ()) /. 1e6)
    (topo_executed topo);
  report_shard_balance ~echo topo

let topo_report_perflow ~echo ~mode ~clock ~duration ~interval topo =
  let flows = Topology.flows topo in
  kout echo "\n%8s" "time";
  Array.iter
    (fun (f : Topology.built_flow) ->
      kout echo " %14s" f.Topology.def.Topology.label)
    flows;
  kout echo "\n";
  let last = Array.make (Array.length flows) 0 in
  let steps = int_of_float (duration /. interval) in
  for i = 1 to steps do
    Topology.run ~mode ?clock topo ~until:(float_of_int i *. interval);
    kout echo "%7.1fs" (float_of_int i *. interval);
    Array.iteri
      (fun j f ->
        let b = Topology.goodput_bytes f in
        kout echo " %9.2f Mbps"
          (float_of_int ((b - last.(j)) * 8) /. interval /. 1e6);
        last.(j) <- b)
      flows;
    kout echo "\n"
  done;
  kout echo "\naverages over the full run:\n";
  Array.iteri
    (fun j (f : Topology.built_flow) ->
      let min_cap =
        List.fold_left
          (fun acc id ->
            Float.min acc (Pcc_net.Link.bandwidth (Topology.link_at topo id)))
          infinity
          (Topology.route_links topo ~flow:j)
      in
      kout echo "  %-14s %8.2f Mbps (route cap %.1f Mbps, srtt %.1f ms)\n"
        f.Topology.def.Topology.label
        (float_of_int (Topology.goodput_bytes f * 8) /. duration /. 1e6)
        (min_cap /. 1e6)
        (f.Topology.sender.Pcc_net.Sender.srtt () *. 1e3))
    flows;
  report_shard_balance ~echo topo

(* Build-independent drive-and-report: the same bytes whether [echo]
   streams to stdout (monolithic) or fills a buffer (sharded). *)
let topo_drive ~echo ~mode ~clock ~describe ~check_invariants ~duration
    ~interval topo =
  if Array.length (Topology.flows topo) > 16 then begin
    kout echo "%d nodes, %d links, %d flows\n" (Topology.num_nodes topo)
      (Topology.num_links topo)
      (Array.length (Topology.flows topo));
    if not describe then begin
      if check_invariants then ignore (Invariant.attach_topology topo);
      topo_report_aggregate ~echo ~mode ~clock ~duration ~interval topo
    end
  end
  else begin
    echo (Topology.describe topo);
    if not describe then begin
      if check_invariants then ignore (Invariant.attach_topology topo);
      topo_report_perflow ~echo ~mode ~clock ~duration ~interval topo
    end
  end

(* The exact single-shard command a forensics bundle names: same
   scenario parameters, sequential 1-shard hub, no chaos. Display names
   that don't round-trip through [Transport.of_name] (the default
   "pcc/safe") are omitted — the sharded shapes generate their own flow
   population and never read [--transport]. *)
let topo_repro ~transports ~shape ~flows_n ~bw_mbps ~rtt_ms ~duration ~seed =
  String.concat " "
    ([ "pcc_sim"; "topo"; "--shape"; shape ]
    @ List.concat_map
        (fun t ->
          let n = Transport.name t in
          match Transport.of_name n with
          | Ok _ -> [ "-t"; n ]
          | Error _ -> [])
        transports
    @ [
        Printf.sprintf "--flows %d" flows_n;
        Printf.sprintf "--bw %g" bw_mbps;
        Printf.sprintf "--rtt %g" rtt_ms;
        Printf.sprintf "--duration %g" duration;
        Printf.sprintf "--seed %d" seed;
        "--shards 1";
      ])

let topo_cmd transports shape flows_n bw_mbps rtt_ms duration seed interval
    describe check_invariants shards domains no_fallback shard_chaos
    forensics_dir =
  Pcc_experiments.Cli_validate.(
    guarded
      [
        positive_f "--bw" bw_mbps;
        positive_f "--rtt" rtt_ms;
        positive_f "--duration" duration;
        positive_f "--interval" interval;
        positive_i "--flows" flows_n;
        non_negative_i "--shards" shards;
        non_negative_i "--domains" domains;
        (if check_invariants && shards > 0 then
           Error
             "error: --check-invariants is incompatible with --shards (the \
              checker's sweeps are engine events on one engine; sharded runs \
              are validated by the fuzz differential and the determinism CI \
              job instead)"
         else Ok ());
        (if domains > 1 && shards = 0 && shape <> "clusters" then
           Error "error: --domains drives the sharded hub; pass --shards N"
         else Ok ());
      ])
  @@ fun () ->
  match
    match shard_chaos with
    | None -> Ok ()
    | Some spec -> (
      try Ok (Shard.set_default_chaos (Shard.chaos_of_string spec))
      with Invalid_argument m -> Error m)
  with
  | Error m -> `Error (false, "error: " ^ m)
  | Ok () -> (
    if no_fallback then Degrade.set_fallback false;
    let bandwidth = Units.mbps bw_mbps in
    let rtt = rtt_ms /. 1000. in
    (* --shards 0 (the default) builds the classic monolithic topology;
       "clusters" is inherently sharded, so give it a 1-shard hub rather
       than reject it. *)
    if shards = 0 && shape <> "clusters" then begin
      let engine = Engine.create () in
      let rng = Rng.create seed in
      match
        topo_shape ~engine ~hub:None ~rng ~bandwidth ~rtt ~flows_n transports
          shape
      with
      | exception Invalid_argument msg -> `Error (false, "error: " ^ msg)
      | Error msg -> `Error (false, msg)
      | Ok topo ->
        let echo s =
          print_string s;
          flush stdout
        in
        topo_drive ~echo ~mode:Shard.Sequential ~clock:None ~describe
          ~check_invariants ~duration ~interval topo;
        `Ok ()
    end
    else begin
      (* Sharded: each degradation-ladder rung rebuilds the whole
         simulation from the seed on a fresh hub and reports into a
         buffer, printed only when a rung completes — the byte-identical
         contract then makes a degraded run's stdout indistinguishable
         from a clean one's. *)
      Printexc.record_backtrace true;
      let shards_n = max 1 shards in
      let current =
        ref { Degrade.shards = shards_n; domains = max 1 domains }
      in
      let attempt (a : Degrade.attempt) =
        current := a;
        let buf = Buffer.create 4096 in
        let echo = Buffer.add_string buf in
        let engine = Engine.create () in
        let hub = Shard.create ~shards:a.Degrade.shards () in
        let mode, clock =
          if a.Degrade.domains > 1 then begin
            Shard.configure ~wedge_grace:2.0 ~sleep:Unix.sleepf hub;
            (Shard.Parallel a.Degrade.domains, Some Unix.gettimeofday)
          end
          else (Shard.Sequential, None)
        in
        let rng = Rng.create seed in
        match
          topo_shape ~engine ~hub:(Some hub) ~rng ~bandwidth ~rtt ~flows_n
            transports shape
        with
        | Error msg -> Error msg
        | Ok topo ->
          topo_drive ~echo ~mode ~clock ~describe ~check_invariants ~duration
            ~interval topo;
          Ok (Buffer.contents buf)
      in
      let steps_taken = ref [] in
      let report (s : Degrade.step) =
        steps_taken := s :: !steps_taken;
        Printf.eprintf
          "pcc_sim: topo: shard %d %s at barrier round %d on the %d-shard / \
           %d-domain rung (%s); retrying narrower (%.2fs lost)\n%!"
          s.Degrade.shard
          (if s.Degrade.wedged then "wedged" else "crashed")
          s.Degrade.round s.Degrade.attempt.Degrade.shards
          s.Degrade.attempt.Degrade.domains s.Degrade.exn_text
          s.Degrade.wall_s
      in
      let plan = Degrade.plan ~domains:(max 1 domains) ~shards:shards_n () in
      match Degrade.run ~clock:Unix.gettimeofday ~report ~plan attempt with
      | exception Invalid_argument msg -> `Error (false, "error: " ^ msg)
      | exception Shard.Lane_failure { shard; round; wedged; origin; backtrace }
        ->
        let ladder =
          List.rev_map
            (fun (s : Degrade.step) ->
              Printf.sprintf
                "%d shard(s) / %d domain(s): shard %d %s at barrier round %d: \
                 %s"
                s.Degrade.attempt.Degrade.shards
                s.Degrade.attempt.Degrade.domains s.Degrade.shard
                (if s.Degrade.wedged then "wedged" else "crashed")
                s.Degrade.round s.Degrade.exn_text)
            !steps_taken
        in
        let bundle =
          Pcc_experiments.Forensics.write_shard_bundle ~dir:forensics_dir
            {
              Pcc_experiments.Forensics.label = "topo-" ^ shape;
              seed = Some seed;
              repro =
                Some
                  (topo_repro ~transports ~shape ~flows_n ~bw_mbps ~rtt_ms
                     ~duration ~seed);
              shards = !current.Degrade.shards;
              domains = !current.Degrade.domains;
              shard;
              round;
              wedged;
              exn_text = Printexc.to_string origin;
              backtrace;
              ladder;
            }
        in
        Option.iter
          (fun d ->
            Printf.eprintf "pcc_sim: topo: forensics bundle in %s/\n%!" d)
          bundle;
        `Error
          ( false,
            Printf.sprintf "error: shard %d %s at barrier round %d: %s" shard
              (if wedged then "wedged" else "crashed")
              round (Printexc.to_string origin) )
      | { Degrade.value = Error msg; _ } -> `Error (false, msg)
      | { Degrade.value = Ok out; steps; attempt = a } ->
        if steps <> [] then
          Printf.eprintf
            "pcc_sim: topo: degradation ladder settled at %d shard(s) / %d \
             domain(s) after %d failed rung(s)\n%!"
            a.Degrade.shards a.Degrade.domains (List.length steps);
        print_string out;
        `Ok ()
    end)

(* ------------------------------------------------------------------ *)
(* Tracing *)

let mask_of_categories s =
  let parts =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  let folded =
    List.fold_left
      (fun acc name ->
        match acc with
        | Error _ -> acc
        | Ok m -> (
          match Pcc_trace.Event.cat_of_string name with
          | Some c -> Ok (m lor c)
          | None ->
            Error
              (Printf.sprintf
                 "unknown trace category %s (engine, link, pcc, tcp, flow, \
                  all, default)"
                 name)))
      (Ok 0) parts
  in
  match folded with
  | Ok 0 -> Error "no trace category selected"
  | r -> r

let write_trace_artifacts ~dir c =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let p name = Filename.concat dir name in
  Pcc_trace.Export.write_chrome_json ~path:(p "trace.json") c;
  Pcc_trace.Export.write_decision_log ~path:(p "decisions.log") c;
  Pcc_metrics.Series_io.write_multi_series ~path:(p "trace.csv")
    (Pcc_trace.Export.csv_series c);
  Printf.printf
    "trace: %d events held (%d emitted, %d overwritten) -> \
     %s/{trace.json,trace.csv,decisions.log}\n"
    (Pcc_trace.Collector.length c)
    (Pcc_trace.Collector.emitted c)
    (Pcc_trace.Collector.dropped c)
    dir

let trace_cmd transports shape bw_mbps rtt_ms duration seed out_dir capacity
    categories probe_ms =
  match mask_of_categories categories with
  | Error msg -> `Error (false, "error: " ^ msg)
  | Ok mask ->
    Pcc_experiments.Cli_validate.(
      guarded
        [
          positive_f "--bw" bw_mbps;
          positive_f "--rtt" rtt_ms;
          positive_f "--duration" duration;
          positive_i "--buffer-events" capacity;
          positive_f "--probe-interval" probe_ms;
        ])
    @@ fun () ->
    begin
      let bandwidth = Units.mbps bw_mbps in
      let rtt = rtt_ms /. 1000. in
      let collector =
        Pcc_trace.Collector.create ~capacity ~mask
          ~probe_interval:(probe_ms /. 1000.) ()
      in
      Pcc_trace.Collector.install collector;
      let engine = Engine.create () in
      let rng = Rng.create seed in
      match
        topo_shape ~engine ~hub:None ~rng ~bandwidth ~rtt ~flows_n:1000
          transports shape
      with
      | Error msg ->
        Pcc_trace.Collector.uninstall ();
        `Error (false, msg)
      | Ok _topo ->
        Engine.run ~until:duration engine;
        write_trace_artifacts ~dir:out_dir collector;
        Pcc_trace.Collector.uninstall ();
        `Ok ()
    end

let game_cmd senders capacity steps =
  Pcc_experiments.Cli_validate.(
    guarded
      [
        at_least "--senders" 1 senders;
        positive_f "--capacity" capacity;
        non_negative_i "--steps" steps;
      ])
  @@ fun () ->
  let x0 =
    Array.init senders (fun i -> capacity /. float_of_int (i + 2))
  in
  let x = ref x0 in
  Printf.printf "step  rates (C = %.0f)\n" capacity;
  for s = 0 to steps do
    if s mod (max 1 (steps / 20)) = 0 then begin
      Printf.printf "%4d " s;
      Array.iter (fun v -> Printf.printf " %7.2f" v) !x;
      Printf.printf "  jain=%.4f\n"
        (Pcc_metrics.Stats.jain_index !x)
    end;
    x := Pcc_core.Game.step ~c:capacity !x
  done;
  `Ok ()

(* Hidden supervision self-test: a sweep with a deliberate hang and a
   deliberate crash, enabled by PCC_TEST_HANG so CI can assert that a
   supervised sweep survives both, names them in the report, and exits
   nonzero. *)
let selftest_entry : Pcc_experiments.Exp_registry.entry =
  let open Pcc_experiments in
  {
    Exp_registry.name = "selftest";
    descr = "supervision self-test: ok / hang / crash / ok (PCC_TEST_HANG)";
    parallel = true;
    render =
      (fun ?pool ?policy ?dump_dir:_ ~scale:_ ~seed:_ () ->
        let hang () =
          (* An engine that reschedules itself forever: only a Task_guard
             deadline or event ceiling gets us out. *)
          let engine = Engine.create () in
          let rec tick () =
            Engine.post_in engine ~after:1e-3 tick
          in
          tick ();
          Engine.run engine;
          0.
        in
        let tasks =
          [
            Exp_common.task ~label:"selftest/ok-before" (fun () -> 1.);
            Exp_common.task ~label:"selftest/hang" hang;
            Exp_common.task ~label:"selftest/crash" (fun () ->
                failwith "selftest: injected crash");
            Exp_common.task ~label:"selftest/ok-after" (fun () -> 2.);
          ]
        in
        let results = Exp_common.run_tasks_opt ?pool ?policy tasks in
        Exp_common.render_table
          {
            Exp_common.title = "supervision self-test";
            header = [ "task"; "result" ];
            rows =
              List.map2
                (fun t r ->
                  [
                    Exp_common.task_label t;
                    (match r with
                    | Some v -> Printf.sprintf "%.0f" v
                    | None -> "n/a");
                  ])
                tasks results;
            note = None;
          });
  }

let exp_cmd names scale seed jobs dump_dir trace_out list_exps deadline
    max_events retries backoff forensics forensic_trace checkpoint resume
    no_fallback shard_chaos =
  let open Pcc_experiments in
  if list_exps then begin
    List.iter
      (fun e ->
        Printf.printf "%-10s %s\n" e.Exp_registry.name e.Exp_registry.descr)
      Exp_registry.all;
    `Ok ()
  end
  else
    Pcc_experiments.Cli_validate.(
      guarded
        [
          positive_f "--scale" scale;
          at_least "--jobs" 1 jobs;
          opt positive_f "--deadline" deadline;
          opt positive_i "--max-task-events" max_events;
          non_negative_i "--retries" retries;
          non_negative_f "--backoff" backoff;
        ])
    @@ fun () ->
    match
      match shard_chaos with
      | None -> Ok ()
      | Some spec -> (
        try Ok (Shard.set_default_chaos (Shard.chaos_of_string spec))
        with Invalid_argument m -> Error m)
    with
    | Error m -> `Error (false, "error: " ^ m)
    | Ok () ->
    if no_fallback then Degrade.set_fallback false;
    (* Tracing records into domain-local state, so a traced run must stay
       in this domain: force the fan-out to be sequential. *)
    let jobs =
      match trace_out with
      | Some _ when jobs > 1 ->
        Printf.eprintf "exp: --trace-out forces --jobs 1 (was %d)\n%!" jobs;
        1
      | _ -> jobs
    in
    let collector =
      Option.map
        (fun _ ->
          let c = Pcc_trace.Collector.create () in
          Pcc_trace.Collector.install c;
          c)
        trace_out
    in
    let registry =
      if Sys.getenv_opt "PCC_TEST_HANG" <> None then
        Exp_registry.all @ [ selftest_entry ]
      else Exp_registry.all
    in
    let entries =
      match names with
      | [] -> Ok Exp_registry.all
      | names ->
        let find n =
          List.find_opt (fun e -> e.Exp_registry.name = n) registry
        in
        let unknown = List.filter (fun n -> find n = None) names in
        if unknown <> [] then
          Error
            (Printf.sprintf "error: unknown experiment(s): %s (try --list)"
               (String.concat ", " unknown))
        else Ok (List.filter_map find names)
    in
    match entries with
    | Error msg -> `Error (false, msg)
    | Ok entries -> (
      let names_list = List.map (fun e -> e.Exp_registry.name) entries in
      (* A resumed run must be the same sweep: same seed, scale and
         experiment selection, or byte-identity is meaningless. *)
      let resume_loaded =
        match resume with
        | None -> Ok []
        | Some path -> (
          try
            let meta, records = Checkpoint.load ~path in
            if Checkpoint.matches meta ~seed ~scale ~names:names_list then
              Ok records
            else
              Error
                (Printf.sprintf
                   "error: checkpoint %s was taken with --seed %d --scale %g \
                    over %d experiment(s); rerun with the same parameters \
                    and selection"
                   path meta.Checkpoint.seed meta.Checkpoint.scale
                   (List.length meta.Checkpoint.names))
          with
          | Pcc_sim.Persist.Corrupt m ->
            Error (Printf.sprintf "error: corrupt checkpoint %s: %s" path m)
          | Sys_error m ->
            Error (Printf.sprintf "error: cannot read checkpoint: %s" m))
      in
      match resume_loaded with
      | Error msg -> `Error (false, msg)
      | Ok stored ->
        if stored <> [] then
          Printf.eprintf
            "exp: resuming: %d/%d experiment(s) restored from checkpoint\n%!"
            (List.length stored) (List.length entries);
        (* --resume without --checkpoint keeps checkpointing into the
           same file, so a resumed run can itself be killed and resumed. *)
        let ckpt_path =
          match (checkpoint, resume) with
          | Some p, _ -> Some p
          | None, p -> p
        in
        let ckpt =
          Option.map
            (fun path ->
              let t =
                Checkpoint.create ~path
                  { Checkpoint.seed; scale; names = names_list }
              in
              List.iter
                (fun (name, output) -> Checkpoint.append t ~name ~output)
                stored;
              t)
            ckpt_path
        in
        Supervisor.reset_failures ();
        let policy =
          {
            Supervisor.default_policy with
            Supervisor.jobs;
            deadline;
            max_events;
            retries;
            backoff;
            transient = (fun _ -> retries > 0);
            forensics_dir = Some forensics;
            forensic_trace;
          }
        in
        let exit_after =
          Option.bind (Sys.getenv_opt "PCC_TEST_EXIT_AFTER") int_of_string_opt
        in
        let completed = ref 0 in
        List.iter
          (fun e ->
            let open Exp_registry in
            Printf.printf "\n### %s — %s\n%!" e.name e.descr;
            let out =
              match List.assoc_opt e.name stored with
              | Some out ->
                Printf.eprintf "exp: %s restored from checkpoint\n%!" e.name;
                out
              | None ->
                let policy =
                  {
                    policy with
                    Supervisor.repro_context =
                      Some
                        (Printf.sprintf "pcc_sim exp %s --scale %g --seed %d"
                           e.name scale seed);
                  }
                in
                let out = e.render ~policy ?dump_dir ~scale ~seed () in
                Option.iter
                  (fun t -> Checkpoint.append t ~name:e.name ~output:out)
                  ckpt;
                out
            in
            print_string out;
            flush stdout;
            incr completed;
            match exit_after with
            | Some n when !completed >= n && !completed < List.length entries
              ->
              (* Checkpoint-resume smoke hook: die mid-sweep, cleanly. *)
              Printf.eprintf "exp: PCC_TEST_EXIT_AFTER=%d, exiting early\n%!"
                n;
              Option.iter Checkpoint.close ckpt;
              exit 3
            | _ -> ())
          entries;
        Option.iter Checkpoint.close ckpt;
        (match (collector, trace_out) with
        | Some c, Some dir ->
          write_trace_artifacts ~dir c;
          Pcc_trace.Collector.uninstall ()
        | _ -> ());
        (* Partial results were printed above; now make the failure
           visible in the exit status with a one-line summary. *)
        (match Supervisor.failures () with
        | [] -> `Ok ()
        | failures ->
          let shown = List.filteri (fun i _ -> i < 6) failures in
          (* A shard-lane failure names its shard and barrier round in
             the one-line summary instead of a bare "crashed". *)
          let lane_prefix = "Shard.Lane_failure: " in
          let names =
            List.map
              (fun (o : Supervisor.outcome) ->
                let status_text =
                  match o.Supervisor.status with
                  | Supervisor.Crashed { Supervisor.exn_text; _ }
                    when String.starts_with ~prefix:lane_prefix exn_text -> (
                    let rest =
                      String.sub exn_text
                        (String.length lane_prefix)
                        (String.length exn_text - String.length lane_prefix)
                    in
                    match String.index_opt rest ':' with
                    | Some i -> String.sub rest 0 i
                    | None -> rest)
                  | s -> Supervisor.status_name s
                in
                Printf.sprintf "%s (%s)" o.Supervisor.label status_text)
              shown
          in
          let suffix =
            if List.length failures > List.length shown then ", ..." else ""
          in
          `Error
            ( false,
              Printf.sprintf "error: %d task(s) failed: %s%s (forensics in %s/)"
                (List.length failures)
                (String.concat ", " names)
                suffix forensics )))

(* ------------------------------------------------------------------ *)
(* Scenario fuzzing *)

let fuzz_cmd runs seed corpus deep_every shard_every chaos_every shards
    shrink_budget transports replay replay_dir =
  Pcc_experiments.Cli_validate.(
    guarded
      [
        non_negative_i "--runs" runs;
        non_negative_i "--deep-every" deep_every;
        non_negative_i "--shard-every" shard_every;
        non_negative_i "--chaos-every" chaos_every;
        at_least "--shards" 2 shards;
        non_negative_i "--shrink-budget" shrink_budget;
      ])
  @@ fun () ->
  let menu_result =
    match transports with
    | None -> Ok None
    | Some spec -> (
      let names =
        List.filter
          (fun s -> s <> "")
          (String.split_on_char ',' spec |> List.map String.trim)
      in
      if names = [] then Error "--transports: empty transport list"
      else
        match
          List.find_map
            (fun n ->
              match Pcc_scenario.Transport.of_name n with
              | Ok _ -> None
              | Error m -> Some m)
            names
        with
        | Some m -> Error ("--transports: " ^ m)
        | None -> Ok (Some names))
  in
  match menu_result with
  | Error m -> `Error (false, "error: " ^ m)
  | Ok menu ->
  match
    try Ok (Pcc_fuzz.Driver.synth_of_env ())
    with Invalid_argument m -> Error m
  with
  | Error m -> `Error (false, "error: " ^ m)
  | Ok synth_opt -> (
    let synth = Option.value synth_opt ~default:(fun _ -> None) in
    match (replay, replay_dir) with
    | Some path, _ -> (
      match Pcc_fuzz.Driver.replay ~synth ~shards path with
      | Ok () ->
        Printf.printf "replay %s: all oracles pass\n" path;
        `Ok ()
      | Error f ->
        `Error
          ( false,
            Printf.sprintf "error: replay %s fails %s: %s" path
              f.Pcc_fuzz.Oracle.oracle f.Pcc_fuzz.Oracle.detail )
      | exception Failure m -> `Error (false, "error: " ^ m)
      | exception Persist.Corrupt m ->
        `Error (false, "error: corrupt repro: " ^ m)
      | exception Sys_error m -> `Error (false, "error: " ^ m))
    | None, Some dir -> (
      match
        Pcc_fuzz.Driver.replay_dir ~synth ~shards ~log:print_endline dir
      with
      | [] ->
        Printf.printf "corpus %s: all repros pass\n" dir;
        `Ok ()
      | failing ->
        `Error
          ( false,
            Printf.sprintf "error: %d corpus repro(s) still fail"
              (List.length failing) )
      | exception Failure m -> `Error (false, "error: " ^ m)
      | exception Persist.Corrupt m ->
        `Error (false, "error: corrupt repro: " ^ m)
      | exception Sys_error m -> `Error (false, "error: " ^ m))
    | None, None -> (
      let summary =
        Pcc_fuzz.Driver.fuzz ~synth ~deep_every ~shard_every ~chaos_every
          ~shards ~shrink_budget ?corpus_dir:corpus ?menu ~log:print_endline
          ~runs ~seed ()
      in
      match summary.Pcc_fuzz.Driver.failed with
      | [] -> `Ok ()
      | failed ->
        let oracles =
          List.map
            (fun (r : Pcc_fuzz.Driver.failure_report) ->
              Printf.sprintf "run %d (%s)" r.Pcc_fuzz.Driver.run
                r.Pcc_fuzz.Driver.failure.Pcc_fuzz.Oracle.oracle)
            failed
        in
        `Error
          ( false,
            Printf.sprintf "error: %d/%d fuzz run(s) failed: %s"
              (List.length failed) runs
              (String.concat ", " oracles) )))

let list_cmd () =
  Printf.printf "transports:\n";
  List.iter (Printf.printf "  %s\n") Transport.all_names;
  Printf.printf "queues:\n  droptail codel red infinite fq fq-codel\n";
  `Ok ()

(* ------------------------------------------------------------------ *)

let transports_arg =
  Arg.(
    value
    & opt_all transport_conv [ Transport.pcc () ]
    & info [ "t"; "transport" ] ~docv:"NAME"
        ~doc:"Transport for one flow (repeatable). See $(b,pcc_sim list).")

let bw_arg =
  Arg.(value & opt float 100. & info [ "bw" ] ~docv:"MBPS" ~doc:"Bottleneck bandwidth.")

let rtt_arg =
  Arg.(value & opt float 30. & info [ "rtt" ] ~docv:"MS" ~doc:"Base round-trip time.")

let loss_arg =
  Arg.(value & opt float 0. & info [ "loss" ] ~docv:"P" ~doc:"Forward random loss probability.")

let rev_loss_arg =
  Arg.(value & opt float 0. & info [ "rev-loss" ] ~docv:"P" ~doc:"Ack-path random loss probability.")

let jitter_arg =
  Arg.(value & opt float 0. & info [ "jitter" ] ~docv:"MS" ~doc:"Uniform extra forward delay bound.")

let buffer_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "buffer" ] ~docv:"KB" ~doc:"Bottleneck buffer (default: one BDP).")

let queue_arg =
  Arg.(
    value & opt string "droptail"
    & info [ "queue" ] ~docv:"KIND" ~doc:"Queue discipline (see $(b,pcc_sim list)).")

let duration_arg =
  Arg.(value & opt float 30. & info [ "duration" ] ~docv:"S" ~doc:"Simulated seconds.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.")

let interval_arg =
  Arg.(value & opt float 1. & info [ "interval" ] ~docv:"S" ~doc:"Reporting interval.")

let check_invariants_arg =
  Arg.(
    value & flag
    & info [ "check-invariants" ]
        ~doc:
          "Attach the runtime invariant checker (packet conservation, queue \
           occupancy, throughput bounds) to the topology; any violation \
           aborts the run with a diagnostic.")

let run_term =
  Term.(
    ret
      (const run_cmd $ transports_arg $ bw_arg $ rtt_arg $ loss_arg
     $ rev_loss_arg $ jitter_arg $ buffer_arg $ queue_arg $ duration_arg
     $ seed_arg $ interval_arg $ check_invariants_arg))

let chaos_term =
  let transport_arg =
    Arg.(
      value
      & opt transport_conv (Transport.pcc ())
      & info [ "t"; "transport" ] ~docv:"NAME"
          ~doc:"Transport to run through the gauntlet.")
  in
  let chaos_duration_arg =
    Arg.(
      value & opt float 60.
      & info [ "duration" ] ~docv:"S" ~doc:"Simulated seconds.")
  in
  let rate_arg =
    Arg.(
      value & opt float 0.1
      & info [ "rate" ] ~docv:"HZ"
          ~doc:"Mean Poisson fault arrival rate (faults per second).")
  in
  Term.(
    ret
      (const chaos_cmd $ transport_arg $ bw_arg $ rtt_arg $ chaos_duration_arg
     $ seed_arg $ rate_arg $ check_invariants_arg))

let topo_term =
  let shape_arg =
    Arg.(
      value & opt string "dumbbell"
      & info [ "shape" ] ~docv:"SHAPE"
          ~doc:
            "Topology shape: $(b,dumbbell) (one bottleneck), $(b,parking) \
             (asymmetric 3-hop chain), $(b,revpath) (ack path 100x narrower \
             than the data path), $(b,fanin-large) ($(b,--flows) sized PCC \
             transfers over one bottleneck, reported in aggregate), or \
             $(b,clusters) (chained fan-in dumbbells that spread over \
             $(b,--shards)).")
  in
  let flows_arg =
    Arg.(
      value & opt int 10_000
      & info [ "flows" ] ~docv:"N"
          ~doc:
            "Flow population for $(b,fanin-large) (other shapes take one \
             flow per $(b,--transport)).")
  in
  let describe_arg =
    Arg.(
      value & flag
      & info [ "describe" ]
          ~doc:"Print the built graph (nodes, links, routes) and exit.")
  in
  let shards_arg =
    Arg.(
      value & opt int 0
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Partition the topology over $(docv) shards and drive it through \
             the conservative parallel hub. Output is byte-identical to the \
             monolithic run for every $(docv); 0 (the default) builds the \
             classic single-engine topology. Incompatible with \
             $(b,--check-invariants).")
  in
  let domains_arg =
    Arg.(
      value & opt int 0
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Fan the hub's windows out over up to $(docv) worker domains \
             (clamped to the shard count), with the out-of-band wedge \
             watchdog armed. 0 or 1 (the default) executes windows \
             sequentially. Output stays byte-identical at every value.")
  in
  let no_fallback_arg =
    Arg.(
      value & flag
      & info [ "no-fallback" ]
          ~doc:
            "Disable the degradation ladder: the first shard-lane failure \
             exits nonzero immediately (after writing its forensics bundle) \
             instead of transparently retrying the run at half the width.")
  in
  let shard_chaos_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "shard-chaos" ] ~docv:"SPEC"
          ~doc:
            "Deterministic fault injection into the sharded runtime: \
             comma-separated $(b,crash=SHARD:ROUND) and/or \
             $(b,wedge=SHARD:ROUND) fire in that shard's window at that \
             lifetime barrier round. Equivalent to \
             $(b,PCC_TEST_SHARD_CRASH) / $(b,PCC_TEST_SHARD_WEDGE); the \
             flag wins over the environment. Chaos never fires on a 1-shard \
             hub, so the ladder's final rung always runs clean.")
  in
  let topo_forensics_arg =
    Arg.(
      value & opt string "forensics"
      & info [ "forensics" ] ~docv:"DIR"
          ~doc:
            "Directory for the crash-forensics bundle written when a sharded \
             run fails its last ladder rung (or its first, under \
             $(b,--no-fallback)): exception, backtrace, seed, shard, barrier \
             round, the degradation steps taken, and the exact single-shard \
             repro command.")
  in
  Term.(
    ret
      (const topo_cmd $ transports_arg $ shape_arg $ flows_arg $ bw_arg
     $ rtt_arg $ duration_arg $ seed_arg $ interval_arg $ describe_arg
     $ check_invariants_arg $ shards_arg $ domains_arg $ no_fallback_arg
     $ shard_chaos_arg $ topo_forensics_arg))

let game_term =
  let senders =
    Arg.(value & opt int 4 & info [ "senders" ] ~docv:"N" ~doc:"Competing senders.")
  in
  let capacity =
    Arg.(value & opt float 100. & info [ "capacity" ] ~docv:"C" ~doc:"Link capacity.")
  in
  let steps =
    Arg.(value & opt int 2000 & info [ "steps" ] ~docv:"N" ~doc:"Dynamics rounds.")
  in
  Term.(ret (const game_cmd $ senders $ capacity $ steps))

let exp_term =
  let names_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"EXPERIMENT"
          ~doc:"Experiments to run (default: all). See $(b,--list).")
  in
  let scale_arg =
    Arg.(
      value & opt float 0.3
      & info [ "scale" ] ~docv:"S"
          ~doc:"Fraction of the paper's run durations.")
  in
  let jobs_arg =
    Arg.(
      value & opt int (Pcc_experiments.Runner.default_jobs ())
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains for the simulation fan-out (default: the \
             machine's recommended domain count). Output is byte-identical \
             for every N.")
  in
  let dump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-dir" ] ~docv:"DIR"
          ~doc:"Also write fig11/fig12 time-series CSVs into $(docv).")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List experiments and exit.")
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"DIR"
          ~doc:
            "Record a structured event trace of the whole run and write \
             $(docv)/{trace.json,trace.csv,decisions.log}. Forces \
             $(b,--jobs) 1.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"S"
          ~doc:
            "Per-task wall-clock budget in seconds. A task past it is timed \
             out in place (inside the engine) or abandoned by the watchdog \
             (stuck outside it); the sweep continues with partial results.")
  in
  let max_events_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-task-events" ] ~docv:"N"
          ~doc:
            "Per-task engine event ceiling — a deterministic budget, unlike \
             $(b,--deadline).")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Re-run a failing task up to $(docv) times with bounded \
             exponential backoff; a task that exhausts them is quarantined. \
             Timeouts are never retried.")
  in
  let backoff_arg =
    Arg.(
      value & opt float 0.1
      & info [ "backoff" ] ~docv:"S"
          ~doc:"Initial retry delay; doubles per attempt, capped at 2 s.")
  in
  let forensics_arg =
    Arg.(
      value & opt string "forensics"
      & info [ "forensics" ] ~docv:"DIR"
          ~doc:
            "Directory for per-task failure bundles: exception, backtrace, \
             seed and exact repro command line, plus the task's trace ring \
             when one is recording.")
  in
  let forensic_trace_arg =
    Arg.(
      value & flag
      & info [ "forensic-trace" ]
          ~doc:
            "Record every task into a private trace ring so a failure dumps \
             its recent event history into the forensics bundle even in an \
             otherwise untraced run.")
  in
  let checkpoint_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Write each completed experiment's output to $(docv) (flushed \
             per experiment) so a killed run can continue with \
             $(b,--resume).")
  in
  let resume_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Continue a killed run: completed experiments are re-printed \
             from $(docv) byte-identically, only the rest re-run, and \
             checkpointing continues into the same file. Requires the same \
             --seed, --scale and experiment selection.")
  in
  let no_fallback_arg =
    Arg.(
      value & flag
      & info [ "no-fallback" ]
          ~doc:
            "Disable the shard degradation ladder: a sharded experiment's \
             first lane failure fails the task (named in the exit summary \
             with its shard and barrier round) instead of transparently \
             retrying at half the width.")
  in
  let shard_chaos_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "shard-chaos" ] ~docv:"SPEC"
          ~doc:
            "Deterministic fault injection into sharded experiments: \
             comma-separated $(b,crash=SHARD:ROUND) and/or \
             $(b,wedge=SHARD:ROUND), as in $(b,pcc_sim topo). Equivalent to \
             $(b,PCC_TEST_SHARD_CRASH) / $(b,PCC_TEST_SHARD_WEDGE).")
  in
  Term.(
    ret
      (const exp_cmd $ names_arg $ scale_arg $ seed_arg $ jobs_arg $ dump_arg
     $ trace_out_arg $ list_arg $ deadline_arg $ max_events_arg $ retries_arg
     $ backoff_arg $ forensics_arg $ forensic_trace_arg $ checkpoint_arg
     $ resume_arg $ no_fallback_arg $ shard_chaos_arg))

let trace_term =
  let shape_arg =
    Arg.(
      value & opt string "dumbbell"
      & info [ "shape" ] ~docv:"SHAPE"
          ~doc:
            "Topology shape, as in $(b,pcc_sim topo): $(b,dumbbell), \
             $(b,parking), or $(b,revpath).")
  in
  let out_arg =
    Arg.(
      value & opt string "trace-out"
      & info [ "out"; "o" ] ~docv:"DIR"
          ~doc:"Directory for trace.json, trace.csv and decisions.log.")
  in
  let capacity_arg =
    Arg.(
      value & opt int 262144
      & info [ "buffer-events" ] ~docv:"N"
          ~doc:
            "Ring-buffer capacity in events; once full the oldest events \
             are overwritten.")
  in
  let categories_arg =
    Arg.(
      value & opt string "default"
      & info [ "categories" ] ~docv:"CATS"
          ~doc:
            "Comma-separated event categories to record: $(b,link), \
             $(b,pcc), $(b,tcp), $(b,flow), $(b,engine) (per-dispatch \
             records, voluminous), $(b,all), or $(b,default) (all but \
             engine).")
  in
  let probe_arg =
    Arg.(
      value & opt float 10.
      & info [ "probe-interval" ] ~docv:"MS"
          ~doc:"Link-queue occupancy sampling period.")
  in
  let trace_duration_arg =
    Arg.(
      value & opt float 10.
      & info [ "duration" ] ~docv:"S" ~doc:"Simulated seconds.")
  in
  Term.(
    ret
      (const trace_cmd $ transports_arg $ shape_arg $ bw_arg $ rtt_arg
     $ trace_duration_arg $ seed_arg $ out_arg $ capacity_arg
     $ categories_arg $ probe_arg))

let fuzz_term =
  let runs_arg =
    Arg.(
      value & opt int 100
      & info [ "runs" ] ~docv:"N" ~doc:"Random scenarios to generate and test.")
  in
  let fuzz_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Master seed; each run derives its own. The whole campaign — \
             scenarios, oracle verdicts, shrinking, output — is a pure \
             function of ($(b,--seed), $(b,--runs)).")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Bank a minimized self-contained repro file for every failure \
             into $(docv) (created if missing).")
  in
  let deep_every_arg =
    Arg.(
      value & opt int 8
      & info [ "deep-every" ] ~docv:"N"
          ~doc:
            "Run the expensive supervisor/checkpoint differentials on every \
             $(docv)th scenario (0 disables them).")
  in
  let shard_every_arg =
    Arg.(
      value & opt int 4
      & info [ "shard-every" ] ~docv:"N"
          ~doc:
            "Run the sharded-execution differential (1-shard vs \
             $(b,--shards)-shard hub, bit-identical digests required) on \
             every $(docv)th scenario (0 disables it).")
  in
  let chaos_every_arg =
    Arg.(
      value & opt int 4
      & info [ "chaos-every" ] ~docv:"N"
          ~doc:
            "Run the chaos-ladder differential (a deterministic lane crash \
             injected into the $(b,--shards)-shard run must complete via \
             the degradation ladder with a digest bit-identical to the \
             clean 1-shard run) on every $(docv)th scenario (0 disables \
             it).")
  in
  let shards_arg =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Shard count the sharded differential compares against the \
             1-shard hub run.")
  in
  let shrink_budget_arg =
    Arg.(
      value & opt int 300
      & info [ "shrink-budget" ] ~docv:"N"
          ~doc:"Oracle invocations the minimizer may spend per failure.")
  in
  let transports_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "transports" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated transport names restricting the generator's \
             menu (e.g. \
             $(b,pcc,pcc-vivace,pcc-proteus,pcc-proteus-scavenger) for a \
             controllers-only campaign). Default: every known transport.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay one repro file under the full oracle suite instead of \
             fuzzing; exits 0 when every oracle passes.")
  in
  let replay_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay-dir" ] ~docv:"DIR"
          ~doc:
            "Replay every $(b,.repro) file in $(docv); exits 0 when the \
             whole corpus passes.")
  in
  Term.(
    ret
      (const fuzz_cmd $ runs_arg $ fuzz_seed_arg $ corpus_arg $ deep_every_arg
     $ shard_every_arg $ chaos_every_arg $ shards_arg $ shrink_budget_arg
     $ transports_arg $ replay_arg $ replay_dir_arg))

let cmds =
  [
    Cmd.v
      (Cmd.info "run" ~doc:"Simulate flows sharing one bottleneck link")
      run_term;
    Cmd.v
      (Cmd.info "exp"
         ~doc:
           "Reproduce the paper's experiments (optionally in parallel with \
            --jobs)")
      exp_term;
    Cmd.v
      (Cmd.info "topo"
         ~doc:
           "Simulate flows on a graph topology (multi-hop chains, congested \
            reverse paths)")
      topo_term;
    Cmd.v
      (Cmd.info "trace"
         ~doc:
           "Run a scenario with the structured tracer on and export \
            Perfetto-loadable JSON, CSV series and a decision log")
      trace_term;
    Cmd.v
      (Cmd.info "chaos"
         ~doc:
           "Run a transport through a seeded fault gauntlet and report \
            per-fault recovery")
      chaos_term;
    Cmd.v
      (Cmd.info "game" ~doc:"Run the Sec. 2.2 game dynamics (Theorems 1-2)")
      game_term;
    Cmd.v
      (Cmd.info "fuzz"
         ~doc:
           "Generate random scenarios, test them against invariant and \
            differential oracles, and minimize any failure into a replayable \
            repro file")
      fuzz_term;
    Cmd.v
      (Cmd.info "list" ~doc:"List transports and queue disciplines")
      Term.(ret (const list_cmd $ const ()));
  ]

let () =
  let doc = "packet-level simulator for the PCC congestion-control paper" in
  exit (Cmd.eval (Cmd.group (Cmd.info "pcc_sim" ~doc) cmds))
