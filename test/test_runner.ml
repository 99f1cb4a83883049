(* The domain pool (Pcc_experiments.Runner) and the determinism
   contract: identical output for any --jobs. *)

open Pcc_experiments

(* ------------------------------------------------------------------ *)
(* Runner: order preservation, seeds, errors. *)

(* Burn CPU proportionally to [n] so tasks finish out of submission
   order under real parallelism (and under any scheduling). *)
let busy n =
  let acc = ref 0 in
  for i = 1 to n * 20_000 do
    acc := !acc + (i land 7)
  done;
  Sys.opaque_identity !acc

let test_map_preserves_order () =
  Runner.with_pool ~jobs:4 (fun pool ->
      let n = 32 in
      (* Task i works longest when i is smallest: completion order is
         roughly the reverse of submission order. *)
      let inputs = Array.init n (fun i -> i) in
      let results =
        Runner.map pool
          (fun i ->
            ignore (busy (n - i));
            i * i)
          inputs
      in
      Alcotest.(check (array int))
        "slots in task order regardless of completion order"
        (Array.init n (fun i -> i * i))
        results)

let test_map_list_matches_sequential () =
  let inputs = List.init 50 (fun i -> i) in
  let f i = (i * 7919) mod 1001 in
  let seq = List.map f inputs in
  Runner.with_pool ~jobs:8 (fun pool ->
      Alcotest.(check (list int))
        "map_list = List.map" seq
        (Runner.map_list pool f inputs))

let test_derive_seed_pure_and_distinct () =
  let s = Runner.derive_seed ~master:42 ~index:7 in
  Alcotest.(check int) "deterministic" s
    (Runner.derive_seed ~master:42 ~index:7);
  Alcotest.(check bool) "non-negative" true (s >= 0);
  let seeds =
    List.init 1000 (fun i -> Runner.derive_seed ~master:42 ~index:i)
  in
  let distinct = List.sort_uniq compare seeds in
  Alcotest.(check int) "1000 indices, 1000 distinct seeds" 1000
    (List.length distinct);
  Alcotest.(check bool) "different master, different stream" true
    (Runner.derive_seed ~master:1 ~index:0
    <> Runner.derive_seed ~master:2 ~index:0)

let test_derive_seed_independent_of_completion_order () =
  (* Each task derives its seed inside the task body; delays reverse the
     completion order. The derived seeds must still be exactly the
     sequential ones, slot by slot. *)
  let n = 16 in
  let expected = Array.init n (fun i -> Runner.derive_seed ~master:7 ~index:i) in
  Runner.with_pool ~jobs:4 (fun pool ->
      let got =
        Runner.map pool
          (fun i ->
            ignore (busy (n - i));
            Runner.derive_seed ~master:7 ~index:i)
          (Array.init n (fun i -> i))
      in
      Alcotest.(check (array int))
        "per-task seeds independent of scheduling" expected got)

exception Task_failed of int

let test_lowest_index_error_wins () =
  Runner.with_pool ~jobs:4 (fun pool ->
      let raised =
        try
          ignore
            (Runner.map pool
               (fun i ->
                 ignore (busy (24 - i));
                 (* Index 20 fails fast, index 3 fails slow: the slow,
                    lower-indexed failure must be the one reported. *)
                 if i = 3 || i = 20 then raise (Task_failed i);
                 i)
               (Array.init 24 (fun i -> i)));
          None
        with Task_failed i -> Some i
      in
      Alcotest.(check (option int)) "lowest-indexed exception" (Some 3) raised)

let test_jobs_one_inline () =
  Runner.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "jobs" 1 (Runner.jobs pool);
      Alcotest.(check (list int))
        "inline map works" [ 2; 4; 6 ]
        (Runner.map_list pool (fun x -> 2 * x) [ 1; 2; 3 ]))

(* ------------------------------------------------------------------ *)
(* The determinism contract, end to end: rendered experiment tables are
   byte-identical for --jobs 1/2/8. *)

let rendered_loss ?pool () =
  Exp_common.render_table
    (Exp_loss.table
       (Exp_loss.run ?pool ~scale:0.02 ~seed:11 ~losses:[ 0.0; 0.02 ] ()))

let rendered_game ?pool () =
  Exp_common.render_table
    (Exp_game.table (Exp_game.run ?pool ~seed:11 ~ns:[ 2; 5 ] ()))

let test_tables_byte_identical_across_jobs () =
  let seq_loss = rendered_loss () in
  let seq_game = rendered_game () in
  List.iter
    (fun jobs ->
      Runner.with_pool ~jobs (fun pool ->
          Alcotest.(check string)
            (Printf.sprintf "fig7 subset identical at jobs=%d" jobs)
            seq_loss
            (rendered_loss ~pool ());
          Alcotest.(check string)
            (Printf.sprintf "game identical at jobs=%d" jobs)
            seq_game
            (rendered_game ~pool ())))
    [ 1; 2; 8 ]

(* ------------------------------------------------------------------ *)
(* Supervisor: sweeps survive hangs and crashes with partial results. *)

let temp_dir prefix =
  let f = Filename.temp_file prefix "" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* An engine that reschedules itself forever: only the in-band Task_guard
   (deadline or event ceiling) gets out of [Engine.run]. *)
let engine_hang () =
  let engine = Pcc_sim.Engine.create () in
  let rec tick () = ignore (Pcc_sim.Engine.schedule_in engine ~after:1e-3 tick) in
  tick ();
  Pcc_sim.Engine.run engine;
  -1

let status_at (r : Supervisor.report) i = r.Supervisor.outcomes.(i).status

let test_gauntlet_partial_results () =
  let dir = temp_dir "pcc-gauntlet" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let tasks =
    [
      Exp_common.task ~label:"ok-before" (fun () -> 10);
      Exp_common.task ~label:"hang" engine_hang;
      Exp_common.task ~label:"crash" ~repro:"pcc_sim exp crash" (fun () ->
          failwith "gauntlet: injected crash");
      Exp_common.task ~label:"ok-after" (fun () -> 20);
    ]
  in
  let policy =
    {
      Supervisor.default_policy with
      jobs = 2;
      deadline = Some 0.3;
      forensics_dir = Some dir;
      forensic_trace = true;
    }
  in
  let results, report = Supervisor.run ~policy tasks in
  Alcotest.(check (list (option int)))
    "healthy tasks complete around the failures"
    [ Some 10; None; None; Some 20 ]
    results;
  Alcotest.(check (list int))
    "counts: total/ok/timed_out/crashed"
    [ 4; 2; 1; 1 ]
    [ report.total; report.ok; report.timed_out; report.crashed ];
  (match status_at report 1 with
  | Supervisor.Timed_out { attempts = 1 } -> ()
  | s -> Alcotest.failf "hang should time out, got %s" (Supervisor.status_name s));
  (match status_at report 2 with
  | Supervisor.Crashed f ->
    Alcotest.(check bool) "crash text recorded" true
      (contains f.Supervisor.exn_text "injected crash")
  | s -> Alcotest.failf "crash should crash, got %s" (Supervisor.status_name s));
  Alcotest.(check bool) "report failed" true (Supervisor.failed report);
  let line = Supervisor.summary_line report in
  Alcotest.(check bool) "summary names the hang" true (contains line "hang");
  Alcotest.(check bool) "summary names the crash" true (contains line "crash");
  (* Both failures leave forensics bundles with a report and a trace. *)
  Array.iter
    (fun (o : Supervisor.outcome) ->
      if Supervisor.is_failure o.status then
        match o.forensics with
        | None -> Alcotest.failf "no forensics bundle for %s" o.label
        | Some d ->
          List.iter
            (fun f ->
              Alcotest.(check bool)
                (Printf.sprintf "%s has %s" o.label f)
                true
                (Sys.file_exists (Filename.concat d f)))
            [ "report.txt"; "trace.json"; "decisions.log" ])
    report.outcomes;
  Supervisor.reset_failures ()

let test_watchdog_abandons_non_engine_hang () =
  (* A spin loop never dispatches engine events, so the in-band guard is
     silent and only the out-of-band watchdog can classify the hang. *)
  let release = Atomic.make false in
  let spinner () =
    while not (Atomic.get release) do
      Domain.cpu_relax ()
    done;
    -1
  in
  let tasks =
    [
      Exp_common.task ~label:"ok-a" (fun () -> 1);
      Exp_common.task ~label:"spin" spinner;
      Exp_common.task ~label:"ok-b" (fun () -> 2);
    ]
  in
  let policy =
    {
      Supervisor.default_policy with
      jobs = 2;
      deadline = Some 0.2;
      grace = 0.2;
      poll = 0.05;
    }
  in
  let results, report = Supervisor.run ~policy tasks in
  (* Unwedge the abandoned domain so the process can exit cleanly. *)
  Atomic.set release true;
  Alcotest.(check (list (option int)))
    "spin abandoned, neighbours complete"
    [ Some 1; None; Some 2 ]
    results;
  (match status_at report 1 with
  | Supervisor.Timed_out _ -> ()
  | s ->
    Alcotest.failf "watchdog should time the spinner out, got %s"
      (Supervisor.status_name s));
  Supervisor.reset_failures ()

let test_retry_then_success () =
  let attempts = Atomic.make 0 in
  let flaky () =
    if Atomic.fetch_and_add attempts 1 < 2 then failwith "flaky" else 42
  in
  let policy =
    {
      Supervisor.default_policy with
      retries = 3;
      backoff = 0.;
      transient = (fun _ -> true);
    }
  in
  let results, report =
    Supervisor.run ~policy [ Exp_common.task ~label:"flaky" flaky ]
  in
  Alcotest.(check (list (option int))) "succeeds eventually" [ Some 42 ] results;
  Alcotest.(check int) "counted as retried, not ok" 1 report.Supervisor.retried;
  Alcotest.(check int) "three attempts ran" 3 (Atomic.get attempts);
  (match status_at report 0 with
  | Supervisor.Completed { retries = 2 } -> ()
  | s -> Alcotest.failf "expected 2 retries, got %s" (Supervisor.status_name s));
  Alcotest.(check int) "both failures kept" 2
    (List.length report.Supervisor.outcomes.(0).Supervisor.failures);
  Alcotest.(check bool) "retried-to-success is not a failure" false
    (Supervisor.failed report)

let test_quarantine_after_retry_exhaustion () =
  let attempts = Atomic.make 0 in
  let doomed () =
    ignore (Atomic.fetch_and_add attempts 1);
    failwith "always down"
  in
  let policy =
    {
      Supervisor.default_policy with
      retries = 2;
      backoff = 0.;
      transient = (fun _ -> true);
    }
  in
  let results, report =
    Supervisor.run ~policy [ Exp_common.task ~label:"doomed" doomed ]
  in
  Alcotest.(check (list (option int))) "no result" [ None ] results;
  Alcotest.(check int) "1 + 2 retries" 3 (Atomic.get attempts);
  (match status_at report 0 with
  | Supervisor.Quarantined { attempts = 3; _ } -> ()
  | s -> Alcotest.failf "expected quarantine, got %s" (Supervisor.status_name s));
  Supervisor.reset_failures ()

let test_timeouts_never_retried () =
  (* Even a policy that declares everything transient must not re-run a
     task that blew its event ceiling: timeouts are deterministic. *)
  let policy =
    {
      Supervisor.default_policy with
      retries = 3;
      backoff = 0.;
      transient = (fun _ -> true);
      max_events = Some 1_000;
    }
  in
  let _, report =
    Supervisor.run ~policy [ Exp_common.task ~label:"hog" engine_hang ]
  in
  (match status_at report 0 with
  | Supervisor.Timed_out { attempts = 1 } -> ()
  | s ->
    Alcotest.failf "ceiling should give one timed-out attempt, got %s"
      (Supervisor.status_name s));
  Supervisor.reset_failures ()

let test_non_transient_crash_not_retried () =
  let attempts = Atomic.make 0 in
  let policy = { Supervisor.default_policy with retries = 3; backoff = 0. } in
  let _, report =
    Supervisor.run ~policy
      [
        Exp_common.task ~label:"fatal" (fun () ->
            ignore (Atomic.fetch_and_add attempts 1);
            failwith "fatal");
      ]
  in
  Alcotest.(check int) "default transient retries nothing" 1
    (Atomic.get attempts);
  (match status_at report 0 with
  | Supervisor.Crashed _ -> ()
  | s -> Alcotest.failf "expected crashed, got %s" (Supervisor.status_name s));
  Supervisor.reset_failures ()

let test_empty_sweep () =
  let results, report = Supervisor.run [] in
  Alcotest.(check int) "no results" 0 (List.length results);
  Alcotest.(check int) "empty report" 0 report.Supervisor.total;
  Alcotest.(check bool) "not failed" false (Supervisor.failed report)

(* Rendered tables are byte-identical whether the sweep runs inline or
   across supervised worker domains. *)
let test_supervised_tables_byte_identical () =
  let render jobs =
    let policy = { Supervisor.default_policy with jobs } in
    Exp_common.render_table
      (Exp_loss.table
         (Exp_loss.run ~policy ~scale:0.02 ~seed:11 ~losses:[ 0.0; 0.02 ] ()))
  in
  let seq = rendered_loss () in
  Alcotest.(check string) "supervised jobs=1 = plain sequential" seq (render 1);
  Alcotest.(check string) "supervised jobs=4 = plain sequential" seq (render 4)

(* A completed task that only succeeded after the shard degradation
   ladder stepped down is accounted as degraded — per task and in the
   sweep totals — while still counting as Completed. *)
let test_degraded_accounting () =
  let module Shard = Pcc_sim.Shard in
  let module Degrade = Pcc_sim.Degrade in
  ignore (Degrade.take_tally ());
  let chaotic () =
    let outcome =
      Degrade.run
        ~plan:(Degrade.plan ~shards:2 ())
        (fun (a : Degrade.attempt) ->
          let hub = Shard.create ~shards:a.Degrade.shards () in
          Shard.configure
            ~chaos:{ Shard.crash = Some (1, 1); wedge = None }
            hub;
          Array.iter
            (fun e -> Pcc_sim.Engine.post e ~at:0.1 (fun () -> ()))
            (Shard.engines hub);
          Shard.run hub ~until:1.0;
          Shard.executed hub)
    in
    List.length outcome.Degrade.steps
  in
  let results, report =
    Supervisor.run
      [
        Exp_common.task ~label:"chaotic" chaotic;
        Exp_common.task ~label:"clean" (fun () -> 0);
      ]
  in
  Alcotest.(check (list (option int)))
    "ladder stepped once, clean task untouched"
    [ Some 1; Some 0 ]
    results;
  Alcotest.(check int) "sweep counts one degraded task" 1
    report.Supervisor.degraded;
  (match report.Supervisor.outcomes.(0) with
  | { Supervisor.status = Supervisor.Completed _; degraded; _ } ->
    Alcotest.(check int) "task records its degradation steps" 1 degraded
  | o ->
    Alcotest.failf "expected completion, got %s"
      (Supervisor.status_name o.Supervisor.status));
  Alcotest.(check int) "clean task undegraded" 0
    report.Supervisor.outcomes.(1).Supervisor.degraded;
  Alcotest.(check bool) "degradation is not failure" false
    (Supervisor.failed report)

(* ------------------------------------------------------------------ *)
(* Checkpoint: versioned frames, truncation tolerance, identity. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let with_ckpt f =
  let path = Filename.temp_file "pcc-ckpt" ".bin" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () -> f path

let test_checkpoint_roundtrip () =
  with_ckpt @@ fun path ->
  let meta =
    { Checkpoint.seed = 7; scale = 0.25; names = [ "fig7"; "fig9" ] }
  in
  let t = Checkpoint.create ~path meta in
  Checkpoint.append t ~name:"fig7" ~output:"table one\nrow \xff\x00 bytes\n";
  Checkpoint.append t ~name:"fig9" ~output:"";
  Checkpoint.close t;
  let m, recs = Checkpoint.load ~path in
  Alcotest.(check bool) "meta matches the sweep" true
    (Checkpoint.matches m ~seed:7 ~scale:0.25 ~names:[ "fig7"; "fig9" ]);
  Alcotest.(check bool) "different seed refused" false
    (Checkpoint.matches m ~seed:8 ~scale:0.25 ~names:[ "fig7"; "fig9" ]);
  Alcotest.(check bool) "different selection refused" false
    (Checkpoint.matches m ~seed:7 ~scale:0.25 ~names:[ "fig7" ]);
  Alcotest.(check (list (pair string string)))
    "records round-trip byte-exactly"
    [ ("fig7", "table one\nrow \xff\x00 bytes\n"); ("fig9", "") ]
    recs

let test_checkpoint_truncation_drops_only_tail () =
  with_ckpt @@ fun path ->
  let meta = { Checkpoint.seed = 1; scale = 1.; names = [ "a"; "b" ] } in
  let t = Checkpoint.create ~path meta in
  Checkpoint.append t ~name:"a" ~output:"first output";
  let after_first = String.length (read_file path) in
  Checkpoint.append t ~name:"b" ~output:"second output";
  Checkpoint.close t;
  let full = read_file path in
  (* Kill the writer anywhere inside the second frame: the first record
     must still load, without an exception. *)
  List.iter
    (fun len ->
      write_file path (String.sub full 0 len);
      let _, recs = Checkpoint.load ~path in
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "truncated to %d bytes keeps first record" len)
        [ ("a", "first output") ]
        recs)
    [ String.length full - 1; after_first + 3; after_first ];
  (* Truncating into the header frame is corruption, not a clean resume. *)
  write_file path (String.sub full 0 4);
  Alcotest.(check bool) "header torn -> Corrupt" true
    (match Checkpoint.load ~path with
    | _ -> false
    | exception Pcc_sim.Persist.Corrupt _ -> true)

let test_checkpoint_rejects_foreign_file () =
  with_ckpt @@ fun path ->
  write_file path "not a checkpoint at all, just prose long enough to read";
  Alcotest.(check bool) "bad magic -> Corrupt" true
    (match Checkpoint.load ~path with
    | _ -> false
    | exception Pcc_sim.Persist.Corrupt _ -> true)

let suites =
  [
    ( "runner",
      [
        Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
        Alcotest.test_case "map_list = List.map" `Quick
          test_map_list_matches_sequential;
        Alcotest.test_case "derive_seed pure+distinct" `Quick
          test_derive_seed_pure_and_distinct;
        Alcotest.test_case "seeds independent of scheduling" `Quick
          test_derive_seed_independent_of_completion_order;
        Alcotest.test_case "lowest-index error wins" `Quick
          test_lowest_index_error_wins;
        Alcotest.test_case "jobs=1 inline" `Quick test_jobs_one_inline;
      ] );
    ( "runner.determinism",
      [
        Alcotest.test_case "tables byte-identical jobs 1/2/8" `Slow
          test_tables_byte_identical_across_jobs;
      ] );
    ( "supervisor",
      [
        Alcotest.test_case "gauntlet: hang+crash, partial results" `Quick
          test_gauntlet_partial_results;
        Alcotest.test_case "watchdog abandons non-engine hang" `Quick
          test_watchdog_abandons_non_engine_hang;
        Alcotest.test_case "retry then success" `Quick test_retry_then_success;
        Alcotest.test_case "quarantine on retry exhaustion" `Quick
          test_quarantine_after_retry_exhaustion;
        Alcotest.test_case "timeouts never retried" `Quick
          test_timeouts_never_retried;
        Alcotest.test_case "non-transient crash not retried" `Quick
          test_non_transient_crash_not_retried;
        Alcotest.test_case "empty sweep" `Quick test_empty_sweep;
        Alcotest.test_case "degraded ladder accounting" `Quick
          test_degraded_accounting;
        Alcotest.test_case "supervised tables byte-identical jobs 1/4" `Slow
          test_supervised_tables_byte_identical;
      ] );
    ( "checkpoint",
      [
        Alcotest.test_case "roundtrip + identity" `Quick
          test_checkpoint_roundtrip;
        Alcotest.test_case "truncation drops only the torn tail" `Quick
          test_checkpoint_truncation_drops_only_tail;
        Alcotest.test_case "foreign file rejected" `Quick
          test_checkpoint_rejects_foreign_file;
      ] );
  ]
