(* Reproduction harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index), plus bechamel
   micro-benchmarks of the simulator's hot paths.

   Usage:
     dune exec bench/main.exe                 -- all experiments, default scale
     dune exec bench/main.exe -- --scale 1.0  -- paper-length runs
     dune exec bench/main.exe -- --only fig7,fig9
     dune exec bench/main.exe -- --jobs 4     -- fan out over 4 domains
     dune exec bench/main.exe -- --micro      -- bechamel micro-benchmarks
     dune exec bench/main.exe -- --controllers -- controller-family section
     dune exec bench/main.exe -- --list

   Experiment runs write a machine-readable BENCH_pcc.json (see --out and
   README.md for the schema). With --jobs N > 1 each experiment is also
   re-run sequentially to measure the speedup and to assert that the
   parallel output is byte-identical to the sequential one.

   Set PCC_DUMP_DIR=<dir> to also write the fig11/fig12 time series as
   CSVs for external plotting.                                              *)

open Pcc_experiments

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the simulator's hot paths. *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let engine_bench () =
    (* Schedule-and-drain a small event cascade. *)
    let engine = Pcc_sim.Engine.create () in
    let n = ref 0 in
    for i = 1 to 100 do
      ignore
        (Pcc_sim.Engine.schedule engine
           ~at:(float_of_int i *. 1e-3)
           (fun () -> incr n))
    done;
    Pcc_sim.Engine.run engine
  in
  let engine_drain_bench () =
    (* A 10k-event drain: the steady-state run loop without callbacks
       scheduling more work, i.e. pure pop + dispatch cost. *)
    let engine = Pcc_sim.Engine.create () in
    let n = ref 0 in
    for i = 1 to 10_000 do
      ignore
        (Pcc_sim.Engine.schedule engine
           ~at:(float_of_int (i * 7919 mod 10_000) *. 1e-4)
           (fun () -> incr n))
    done;
    Pcc_sim.Engine.run engine
  in
  let rng = Pcc_sim.Rng.create 1 in
  let rng_bench () = ignore (Pcc_sim.Rng.float rng) in
  let utility = Pcc_core.Utility.safe () in
  let metrics =
    Pcc_core.Utility.
      {
        rate = 1e8;
        throughput = 9.5e7;
        loss = 0.01;
        samples = 500;
        avg_rtt = 0.03;
        prev_avg_rtt = 0.03;
        rtt_early = 0.03;
        rtt_late = 0.031;
        min_rtt = 0.03;
        rtt_samples = 500;
        prev_class = -1;
      }
  in
  let utility_bench () = ignore (utility.Pcc_core.Utility.eval metrics) in
  let sim_second_bench () =
    (* One simulated second of a PCC flow on a 20 Mbps link. *)
    let engine = Pcc_sim.Engine.create () in
    let rng = Pcc_sim.Rng.create 11 in
    let _path =
      Pcc_scenario.Path.build engine ~rng
        ~bandwidth:(Pcc_sim.Units.mbps 20.) ~rtt:0.02
        ~buffer:(Pcc_sim.Units.kib 64)
        ~flows:[ Pcc_scenario.Path.flow (Pcc_scenario.Transport.pcc ()) ]
        ()
    in
    Pcc_sim.Engine.run ~until:1.0 engine
  in
  let tests =
    [
      Test.make ~name:"engine: 100-event cascade" (Staged.stage engine_bench);
      Test.make ~name:"engine: 10k-event drain" (Staged.stage engine_drain_bench);
      Test.make ~name:"rng: one float" (Staged.stage rng_bench);
      Test.make ~name:"utility: one safe eval" (Staged.stage utility_bench);
      Test.make ~name:"pcc: 1 simulated second @20Mbps"
        (Staged.stage sim_second_bench);
    ]
  in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock results
  in
  Printf.printf "\n== micro-benchmarks (bechamel, monotonic clock) ==\n";
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] ->
            Printf.printf "%-40s %12.1f ns/run\n" name est
          | _ -> Printf.printf "%-40s (no estimate)\n" name)
        results)
    tests;
  flush stdout

(* ------------------------------------------------------------------ *)
(* Sharded-execution bench (--shards 1,2,4): the clustered fan-in
   scenario at each requested shard count on the conservative parallel
   hub ({!Pcc_sim.Shard}), Parallel mode, reporting aggregate events/sec,
   per-shard balance and barrier overhead, plus an in-process digest
   identity check of every run against the 1-shard run. The digest gate
   is unconditional; speedup is advisory (recorded with the host's
   measured parallelism so CI can decide whether parallel wins were even
   possible). *)

type shard_bench_record = {
  h_shards : int;
  h_wall : float;  (* hub wall seconds (stats clock) *)
  h_events : int;
  h_balance : float;  (* max/mean per-shard events, 1.0 = perfect *)
  h_overhead : float;  (* 1 - sum busy / (domains * wall) *)
  h_rounds : int;
  h_messages : int;
  h_identical : bool;  (* digest matches the 1-shard run *)
}

let shard_bench_flows = 2_000
let shard_bench_clusters = 4
let shard_bench_duration = 20.

let shard_run_digest topo hub =
  let open Pcc_scenario in
  let b = Buffer.create 1024 in
  Array.iteri
    (fun i (f : Topology.built_flow) ->
      Printf.bprintf b "f%d g=%d fct=%s\n" i (Topology.goodput_bytes f)
        (match f.Topology.fct with
        | Some v -> Printf.sprintf "%h" v
        | None -> "-"))
    (Topology.flows topo);
  Printf.bprintf b "events=%d" (Pcc_sim.Shard.executed hub);
  Buffer.contents b

(* Effective parallelism: the same ALU spin on two domains at once
   against one, as work per second. 2.0 means two real cores; a host
   whose two vCPUs share one core reads about 1.0, which the nominal
   core count cannot tell apart. Median of three, the probe
   perfbench/host.ml also runs. *)
let effective_parallelism () =
  let spin () =
    let x = ref 1 in
    for i = 1 to 30_000_000 do
      x := ((!x * 31) + i) land 0xFF_FFFF
    done;
    ignore (Sys.opaque_identity !x)
  in
  let time f =
    let t0 = now_s () in
    f ();
    now_s () -. t0
  in
  let once () =
    let one = time spin in
    let two =
      time (fun () ->
          let d = Domain.spawn spin in
          spin ();
          Domain.join d)
    in
    2. *. one /. two
  in
  let a = Array.init 3 (fun _ -> once ()) in
  Array.sort compare a;
  a.(1)

let shard_bench ~seed counts =
  let open Pcc_sim in
  Printf.printf
    "\n== sharded execution (clustered fan-in: %d clusters, %d flows, %.0f \
     simulated s) ==\n%!"
    shard_bench_clusters shard_bench_flows shard_bench_duration;
  let one shards =
    let hub = Shard.create ~shards () in
    let rng = Rng.create seed in
    let topo =
      Exp_manyflow.clustered_topology hub ~rng ~clusters:shard_bench_clusters
        ~n:shard_bench_flows ~bandwidth:Exp_manyflow.default_bandwidth
        ~rtt:Exp_manyflow.default_rtt
    in
    Gc.compact ();
    let st =
      Shard.run_stats ~mode:(Shard.Parallel shards) ~clock:now_s hub
        ~until:shard_bench_duration
    in
    (st, shard_run_digest topo hub)
  in
  (* The identity reference is always the 1-shard run; when 1 is in the
     requested list its record doubles as the reference. *)
  let reference = ref None in
  let ref_digest () =
    match !reference with
    | Some d -> d
    | None ->
      let _, d = one 1 in
      reference := Some d;
      d
  in
  let counts = List.sort_uniq compare counts in
  List.map
    (fun shards ->
      let st, digest = one shards in
      if shards = 1 && !reference = None then reference := Some digest;
      let identical = String.equal digest (ref_digest ()) in
      let per = st.Shard.per_shard_events in
      let events = Array.fold_left ( + ) 0 per in
      let mean = float_of_int events /. float_of_int (Array.length per) in
      let worst = Array.fold_left max 0 per in
      let balance = if events = 0 then 1. else float_of_int worst /. mean in
      let busy = Array.fold_left ( +. ) 0. st.Shard.per_shard_busy_s in
      let overhead =
        if st.Shard.wall_s > 0. && st.Shard.domains_used > 0 then
          1. -. (busy /. (float_of_int st.Shard.domains_used *. st.Shard.wall_s))
        else 0.
      in
      Printf.printf
        "%d shard%s  %8d events  %6.2fs wall (%5.2fM ev/s)  balance %.2f  \
         barrier overhead %4.1f%%  %d rounds  %d msgs  identical %b\n%!"
        shards
        (if shards = 1 then " " else "s")
        events st.Shard.wall_s
        (if st.Shard.wall_s > 0. then
           float_of_int events /. st.Shard.wall_s /. 1e6
         else 0.)
        balance (100. *. overhead) st.Shard.rounds st.Shard.messages identical;
      {
        h_shards = shards;
        h_wall = st.Shard.wall_s;
        h_events = events;
        h_balance = balance;
        h_overhead = overhead;
        h_rounds = st.Shard.rounds;
        h_messages = st.Shard.messages;
        h_identical = identical;
      })
    counts

(* ------------------------------------------------------------------ *)
(* Controller-family bench (--controllers): every rate controller solo
   on the same 30 Mbps bottleneck for a fixed simulated window, with a
   trace collector installed to count the control plane's work —
   gradient steps (Vivace-family decisions), utility-class switches
   (Proteus), and the mean per-MI utility. Wall time and engine events
   make the section double as a perf gate over the controller hot
   paths: a controller that stops deciding (zero MIs or zero gradient
   steps) fails scripts/check_bench.sh even if the simulation still
   moves packets. *)

type controller_bench_record = {
  c_name : string;
  c_wall : float;
  c_events : int;
  c_goodput : float;  (* bits/s over the whole run *)
  c_mis : int;  (* monitor intervals completed *)
  c_mean_utility : float;
  c_gradient_steps : int;
  c_utility_switches : int;
}

let controller_bench_duration = 20.

let controller_bench_names =
  [
    "pcc";
    "pcc-vivace";
    "pcc-proteus";
    "pcc-proteus-scavenger";
    "pcc-proteus-hybrid";
  ]

let controller_bench ~seed =
  let open Pcc_scenario in
  Printf.printf
    "\n== controller family (solo 30 Mbps bottleneck, %.0f simulated s) ==\n%!"
    controller_bench_duration;
  List.map
    (fun name ->
      let spec =
        match Transport.of_name name with
        | Ok s -> s
        | Error m -> failwith ("--controllers: " ^ m)
      in
      (* A private collector per run: counts must not bleed across
         controllers (or into a --trace collector). *)
      let collector = Pcc_trace.Collector.create ~capacity:(1 lsl 19) () in
      Pcc_trace.Collector.install collector;
      let engine = Pcc_sim.Engine.create () in
      let rng = Pcc_sim.Rng.create seed in
      let bw = Pcc_sim.Units.mbps 30. in
      let rtt = 0.03 in
      let path =
        Path.build engine ~rng ~bandwidth:bw ~rtt
          ~buffer:(Pcc_sim.Units.bdp_bytes ~rate:bw ~rtt)
          ~flows:[ Path.flow spec ] ()
      in
      let e0 = Pcc_sim.Engine.total_executed () in
      Gc.compact ();
      let t0 = now_s () in
      Pcc_sim.Engine.run ~until:controller_bench_duration engine;
      let wall = now_s () -. t0 in
      let events = Pcc_sim.Engine.total_executed () - e0 in
      Pcc_trace.Collector.uninstall ();
      let goodput =
        float_of_int (Path.goodput_bytes (Path.flows path).(0) * 8)
        /. controller_bench_duration
      in
      let mis = ref 0 in
      let usum = ref 0. in
      let grads = ref 0 in
      let switches = ref 0 in
      Array.iter
        (fun (e : Pcc_trace.Event.record) ->
          match e.kind with
          | Pcc_trace.Event.Mi_end ->
            incr mis;
            usum := !usum +. e.a
          | Pcc_trace.Event.Gradient_step -> incr grads
          | Pcc_trace.Event.Utility_switch -> incr switches
          | _ -> ())
        (Pcc_trace.Collector.events collector);
      let mean_u = if !mis > 0 then !usum /. float_of_int !mis else 0. in
      Printf.printf
        "%-22s %8.2f Mbps  %4d MIs  mean u %10.3f  %5d gradient steps  %3d \
         switches  %6.2fs wall (%5.2fM ev/s)\n%!"
        name (goodput /. 1e6) !mis mean_u !grads !switches wall
        (if wall > 0. then float_of_int events /. wall /. 1e6 else 0.);
      {
        c_name = name;
        c_wall = wall;
        c_events = events;
        c_goodput = goodput;
        c_mis = !mis;
        c_mean_utility = mean_u;
        c_gradient_steps = !grads;
        c_utility_switches = !switches;
      })
    controller_bench_names

(* ------------------------------------------------------------------ *)
(* BENCH_pcc.json: a hand-rolled writer (no JSON dependency). *)

type bench_record = {
  b_name : string;
  b_wall : float;
  b_events : int;
  (* Present only when --jobs > 1: the sequential re-run. *)
  b_seq_wall : float option;
  b_identical : bool option;
  (* Set when the experiment raised instead of rendering. *)
  b_error : string option;
}

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_bench_json ~path ~scale ~seed ~jobs ~total_wall ?(sharding = [])
    ~parallelism ?(controllers = []) records =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"pcc-bench/1\",\n";
  p "  \"scale\": %g,\n" scale;
  p "  \"seed\": %d,\n" seed;
  p "  \"jobs\": %d,\n" jobs;
  p "  \"total_wall_s\": %.6f,\n" total_wall;
  if sharding <> [] then begin
    p "  \"sharding\": {\n";
    p "    \"cores\": %d,\n" (Domain.recommended_domain_count ());
    p "    \"effective_parallelism\": %.3f,\n" parallelism;
    p "    \"scenario\": \"clusters=%d flows=%d duration=%g\",\n"
      shard_bench_clusters shard_bench_flows shard_bench_duration;
    p "    \"runs\": [\n";
    List.iteri
      (fun i r ->
        p "      {\n";
        p "        \"shards\": %d,\n" r.h_shards;
        p "        \"wall_s\": %.6f,\n" r.h_wall;
        p "        \"events\": %d,\n" r.h_events;
        p "        \"events_per_sec\": %.1f,\n"
          (if r.h_wall > 0. then float_of_int r.h_events /. r.h_wall else 0.);
        p "        \"balance\": %.3f,\n" r.h_balance;
        p "        \"barrier_overhead\": %.4f,\n" r.h_overhead;
        p "        \"rounds\": %d,\n" r.h_rounds;
        p "        \"messages\": %d,\n" r.h_messages;
        p "        \"identical\": %b\n" r.h_identical;
        p "      }%s\n" (if i = List.length sharding - 1 then "" else ","))
      sharding;
    p "    ]\n";
    p "  },\n"
  end;
  if controllers <> [] then begin
    p "  \"controllers\": [\n";
    List.iteri
      (fun i r ->
        p "    {\n";
        p "      \"name\": \"%s\",\n" (json_escape r.c_name);
        p "      \"wall_s\": %.6f,\n" r.c_wall;
        p "      \"events\": %d,\n" r.c_events;
        p "      \"events_per_sec\": %.1f,\n"
          (if r.c_wall > 0. then float_of_int r.c_events /. r.c_wall else 0.);
        p "      \"goodput_mbps\": %.3f,\n" (r.c_goodput /. 1e6);
        p "      \"mis\": %d,\n" r.c_mis;
        p "      \"mean_utility\": %.6f,\n" r.c_mean_utility;
        p "      \"gradient_steps\": %d,\n" r.c_gradient_steps;
        p "      \"utility_switches\": %d\n" r.c_utility_switches;
        p "    }%s\n" (if i = List.length controllers - 1 then "" else ","))
      controllers;
    p "  ],\n"
  end;
  p "  \"experiments\": [\n";
  List.iteri
    (fun i r ->
      p "    {\n";
      p "      \"name\": \"%s\",\n" (json_escape r.b_name);
      p "      \"wall_s\": %.6f,\n" r.b_wall;
      p "      \"events\": %d,\n" r.b_events;
      p "      \"events_per_sec\": %.1f"
        (if r.b_wall > 0. then float_of_int r.b_events /. r.b_wall else 0.);
      (match r.b_error with
      | Some msg -> p ",\n      \"error\": \"%s\"" (json_escape msg)
      | None -> ());
      (match r.b_seq_wall with
      | Some sw ->
        p ",\n      \"seq_wall_s\": %.6f,\n" sw;
        p "      \"speedup\": %.3f,\n"
          (if r.b_wall > 0. then sw /. r.b_wall else 0.);
        p "      \"identical\": %b\n"
          (match r.b_identical with Some b -> b | None -> false)
      | None -> p "\n");
      p "    }%s\n" (if i = List.length records - 1 then "" else ","))
    records;
  p "  ]\n";
  p "}\n";
  close_out oc

(* ------------------------------------------------------------------ *)

let () =
  let scale = ref 0.3 in
  let seed = ref 42 in
  let only = ref [] in
  let jobs = ref 1 in
  let out = ref "BENCH_pcc.json" in
  let trace_dir = ref None in
  let run_micro = ref false in
  let run_controllers = ref false in
  let shard_counts = ref [] in
  let list_only = ref false in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
      scale := float_of_string v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string v;
      parse rest
    | "--only" :: v :: rest ->
      only := String.split_on_char ',' v;
      parse rest
    | "--jobs" :: v :: rest ->
      jobs := int_of_string v;
      parse rest
    | "--out" :: v :: rest ->
      out := v;
      parse rest
    | "--trace" :: v :: rest ->
      trace_dir := Some v;
      parse rest
    | "--micro" :: rest ->
      run_micro := true;
      parse rest
    | "--controllers" :: rest ->
      run_controllers := true;
      parse rest
    | "--shards" :: v :: rest ->
      (match
         List.map int_of_string_opt (String.split_on_char ',' v)
       with
      | counts when List.for_all (function Some n -> n >= 1 | None -> false) counts
        -> shard_counts := List.filter_map Fun.id counts
      | _ ->
        Printf.eprintf "--shards wants a comma-separated list of counts >= 1 \
                        (e.g. 1,2,4), got %s\n" v;
        exit 2);
      parse rest
    | "--list" :: rest ->
      list_only := true;
      parse rest
    | arg :: _ ->
      Printf.eprintf
        "unknown argument %s\n\
         usage: main.exe [--scale S] [--seed N] [--only a,b|none] [--jobs N] \
         [--out FILE] [--trace DIR] [--micro] [--controllers] \
         [--shards 1,2,4] [--list]\n"
        arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !list_only then begin
    List.iter
      (fun e -> Printf.printf "%-10s %s\n" e.Exp_registry.name e.Exp_registry.descr)
      Exp_registry.all;
    exit 0
  end;
  if !run_micro then micro ()
  else begin
    (match
       Cli_validate.(
         all
           [
             positive_f "--scale" !scale;
             at_least "--jobs" 1 !jobs;
             non_negative_i "--seed" !seed;
           ])
     with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "bench: %s\n" msg;
      exit 2);
    (* Trace records live in domain-local state: a traced bench must keep
       every simulation in this domain. *)
    (match !trace_dir with
    | Some _ when !jobs > 1 ->
      Printf.eprintf "--trace forces --jobs 1 (was %d)\n%!" !jobs;
      jobs := 1
    | _ -> ());
    let collector =
      Option.map
        (fun _ ->
          let c = Pcc_trace.Collector.create () in
          Pcc_trace.Collector.install c;
          c)
        !trace_dir
    in
    let dump_dir = Sys.getenv_opt "PCC_DUMP_DIR" in
    Printf.printf
      "PCC reproduction benchmarks (scale %.2f of paper durations, seed %d, \
       jobs %d)\n"
      !scale !seed !jobs;
    (* [--only none] selects no experiments: a run that only wants the
       --shards or --controllers sections. *)
    let wanted e =
      (!only = [] || List.mem e.Exp_registry.name !only)
      && !only <> [ "none" ]
    in
    (match
       List.filter
         (fun n -> Exp_registry.find n = None)
         (if !only = [ "none" ] then [] else !only)
     with
    | [] -> ()
    | unknown ->
      Printf.eprintf "unknown experiment(s): %s (see --list)\n"
        (String.concat ", " unknown);
      exit 2);
    let pool = if !jobs > 1 then Some (Runner.create ~jobs:!jobs ()) else None in
    let mismatches = ref [] in
    let crashed = ref [] in
    let t_start = now_s () in
    let records =
      List.filter_map
        (fun e ->
          if not (wanted e) then None
          else begin
            let open Exp_registry in
            Printf.printf "\n### %s — %s\n%!" e.name e.descr;
            let e0 = Pcc_sim.Engine.total_executed () in
            (* Sub-second sweeps marked [parallel = false] skip the pool:
               domain fan-out costs more than it saves there (game
               measured 0.44x at --jobs 2 on this workload). *)
            let pool = if e.parallel then pool else None in
            if pool = None && !jobs > 1 then
              Printf.printf "[%s runs sequentially: sweep too small to \
                             amortize the domain pool]\n%!"
                e.name;
            let t0 = now_s () in
            (* A raising experiment must not take the rest of the sweep
               down: record it, keep going, fail the run at the end. *)
            match e.render ?pool ?dump_dir ~scale:!scale ~seed:!seed () with
            | exception exn ->
              let wall = now_s () -. t0 in
              let events = Pcc_sim.Engine.total_executed () - e0 in
              let msg = Printexc.to_string exn in
              crashed := e.name :: !crashed;
              Printf.printf "[%s FAILED after %.1fs: %s]\n%!" e.name wall msg;
              Some
                {
                  b_name = e.name;
                  b_wall = wall;
                  b_events = events;
                  b_seq_wall = None;
                  b_identical = None;
                  b_error = Some msg;
                }
            | rendered ->
              let wall = now_s () -. t0 in
              let events = Pcc_sim.Engine.total_executed () - e0 in
              print_string rendered;
              Printf.printf "[%s took %.1fs wall, %d events]\n%!" e.name wall
                events;
              let seq_wall, identical =
                match pool with
                | None -> (None, None)
                | Some _ ->
                  (* Sequential re-run: measures speedup and proves the
                     parallel output is byte-identical. *)
                  let t0 = now_s () in
                  let seq = e.render ~scale:!scale ~seed:!seed () in
                  let sw = now_s () -. t0 in
                  let same = String.equal seq rendered in
                  if not same then begin
                    mismatches := e.name :: !mismatches;
                    Printf.printf
                      "[%s MISMATCH: parallel output differs from sequential]\n%!"
                      e.name
                  end
                  else
                    Printf.printf "[%s sequential re-run %.1fs, speedup %.2fx, \
                                   outputs identical]\n%!"
                      e.name sw
                      (if wall > 0. then sw /. wall else 0.);
                  (Some sw, Some same)
              in
              Some
                {
                  b_name = e.name;
                  b_wall = wall;
                  b_events = events;
                  b_seq_wall = seq_wall;
                  b_identical = identical;
                  b_error = None;
                }
          end)
        Exp_registry.all
    in
    let controllers =
      if !run_controllers then controller_bench ~seed:!seed else []
    in
    let sharding =
      if !shard_counts = [] then []
      else shard_bench ~seed:!seed !shard_counts
    in
    let parallelism =
      if sharding = [] then 0.
      else begin
        let p = effective_parallelism () in
        Printf.printf "effective parallelism %.2f (%d cores reported)\n%!" p
          (Domain.recommended_domain_count ());
        p
      end
    in
    (* A sharded run whose digest diverges from the 1-shard run is a
       determinism violation, same as a parallel-vs-sequential
       experiment mismatch. *)
    List.iter
      (fun r ->
        if not r.h_identical then
          mismatches := Printf.sprintf "sharding(shards=%d)" r.h_shards
                        :: !mismatches)
      sharding;
    let total_wall = now_s () -. t_start in
    (match pool with Some p -> Runner.shutdown p | None -> ());
    write_bench_json ~path:!out ~scale:!scale ~seed:!seed ~jobs:!jobs
      ~total_wall ~sharding ~parallelism ~controllers records;
    Printf.printf "\n[bench results written to %s]\n%!" !out;
    (match (collector, !trace_dir) with
    | Some c, Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Pcc_trace.Export.write_chrome_json
        ~path:(Filename.concat dir "trace.json")
        c;
      Pcc_trace.Export.write_decision_log
        ~path:(Filename.concat dir "decisions.log")
        c;
      Pcc_metrics.Series_io.write_multi_series
        ~path:(Filename.concat dir "trace.csv")
        (Pcc_trace.Export.csv_series c);
      Printf.printf
        "[trace: %d events held (%d emitted, %d overwritten) -> %s]\n%!"
        (Pcc_trace.Collector.length c)
        (Pcc_trace.Collector.emitted c)
        (Pcc_trace.Collector.dropped c)
        dir;
      Pcc_trace.Collector.uninstall ()
    | _ -> ());
    if !mismatches <> [] then
      Printf.eprintf "determinism violation in: %s\n"
        (String.concat ", " (List.rev !mismatches));
    if !crashed <> [] then
      Printf.eprintf "bench: %d experiment(s) crashed: %s\n"
        (List.length !crashed)
        (String.concat ", " (List.rev !crashed));
    if !mismatches <> [] || !crashed <> [] then exit 1
  end
