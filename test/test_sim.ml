open Pcc_sim

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Units *)

let test_conversions () =
  check_float "mbps" 1e6 (Units.mbps 1.);
  check_float "kbps" 1e3 (Units.kbps 1.);
  check_float "gbps" 1e9 (Units.gbps 1.);
  check_float "to_mbps roundtrip" 42. (Units.to_mbps (Units.mbps 42.));
  Alcotest.(check int) "kib" 2048 (Units.kib 2);
  Alcotest.(check int) "mib" (1024 * 1024) (Units.mib 1);
  check_float "ms" 0.005 (Units.ms 5.);
  check_float "us" 5e-6 (Units.us 5.)

let test_transmission_time () =
  (* 1500 bytes at 12 kbps = 1 second. *)
  check_float "tx time" 1. (Units.transmission_time ~size:1500 ~rate:12000.);
  Alcotest.check_raises "zero rate rejected"
    (Invalid_argument "Units.transmission_time: rate <= 0") (fun () ->
      ignore (Units.transmission_time ~size:1500 ~rate:0.))

let test_packets_of_bytes () =
  Alcotest.(check int) "exact" 2 (Units.packets_of_bytes (2 * Units.mss));
  Alcotest.(check int) "round up" 3 (Units.packets_of_bytes ((2 * Units.mss) + 1));
  Alcotest.(check int) "one byte" 1 (Units.packets_of_bytes 1)

let test_bdp () =
  (* 100 Mbps * 30 ms = 375000 bytes. *)
  Alcotest.(check int) "bdp" 375000
    (Units.bdp_bytes ~rate:(Units.mbps 100.) ~rtt:0.03)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_order () =
  let engine = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule engine ~at:2. (fun () -> log := 2 :: !log));
  ignore (Engine.schedule engine ~at:1. (fun () -> log := 1 :: !log));
  ignore (Engine.schedule engine ~at:3. (fun () -> log := 3 :: !log));
  Engine.run engine;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  check_float "clock at last event" 3. (Engine.now engine)

let test_engine_until () =
  let engine = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule engine ~at:1. (fun () -> incr fired));
  ignore (Engine.schedule engine ~at:5. (fun () -> incr fired));
  Engine.run ~until:2. engine;
  Alcotest.(check int) "only first fired" 1 !fired;
  check_float "clock left at limit" 2. (Engine.now engine);
  Engine.run engine;
  Alcotest.(check int) "second fires later" 2 !fired

let test_engine_cancel () =
  let engine = Engine.create () in
  let fired = ref false in
  let timer = Engine.schedule engine ~at:1. (fun () -> fired := true) in
  Engine.cancel timer;
  Engine.run engine;
  Alcotest.(check bool) "cancelled timer silent" false !fired

let test_engine_past_raises () =
  let engine = Engine.create () in
  ignore (Engine.schedule engine ~at:5. (fun () -> ()));
  Engine.run engine;
  Alcotest.(check bool) "raises on past schedule" true
    (try
       ignore (Engine.schedule engine ~at:1. (fun () -> ()));
       false
     with Invalid_argument _ -> true)

(* NaN passes both the [at < now] and the [after < 0.] comparisons, so
   every entry point must reject it explicitly, naming itself. *)
let nan_rejected msg push () =
  let engine = Engine.create () in
  Alcotest.check_raises msg (Invalid_argument msg) (fun () -> push engine);
  Alcotest.(check int) "nothing queued" 0 (Engine.pending engine)

let test_engine_nan_post_from () =
  nan_rejected "Engine.post_from: time is NaN"
    (fun e -> Engine.post_from e ~sent:0. ~at:nan ignore)
    ();
  nan_rejected "Engine.post_from: sent instant is NaN"
    (fun e -> Engine.post_from e ~sent:nan ~at:1. ignore)
    ()

let test_engine_nested_scheduling () =
  let engine = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule engine ~at:1. (fun () ->
         log := "outer" :: !log;
         ignore
           (Engine.schedule_in engine ~after:1. (fun () ->
                log := "inner" :: !log))));
  Engine.run engine;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  check_float "clock" 2. (Engine.now engine)

let test_engine_same_time_fifo () =
  let engine = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule engine ~at:1. (fun () -> log := i :: !log))
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "same-instant FIFO" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_negative_delay_clamped () =
  let engine = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule_in engine ~after:(-5.) (fun () -> fired := true));
  Engine.run engine;
  Alcotest.(check bool) "clamped to now" true !fired;
  check_float "clock unchanged" 0. (Engine.now engine)

(* ------------------------------------------------------------------ *)
(* Engine hardening: exception-safe dispatch and the livelock watchdog *)

let test_engine_event_error_context () =
  let engine = Engine.create () in
  ignore (Engine.schedule engine ~at:1.5 (fun () -> failwith "boom"));
  ignore (Engine.schedule engine ~at:2. (fun () -> ()));
  (match Engine.run engine with
  | () -> Alcotest.fail "raising callback must surface"
  | exception Engine.Event_error { time; exn } ->
    check_float "scheduled time attached" 1.5 time;
    Alcotest.(check bool) "original exn preserved" true
      (match exn with Failure m -> m = "boom" | _ -> false));
  (* The failing event was consumed and the engine is still steppable. *)
  check_float "clock advanced to the failed event" 1.5 (Engine.now engine);
  Alcotest.(check bool) "next event still runs" true (Engine.step engine);
  check_float "clock reaches the survivor" 2. (Engine.now engine)

let test_engine_collect_policy () =
  let engine = Engine.create ~on_error:Collect () in
  let survived = ref false in
  ignore (Engine.schedule engine ~at:1. (fun () -> failwith "first"));
  ignore (Engine.schedule engine ~at:2. (fun () -> failwith "second"));
  ignore (Engine.schedule engine ~at:3. (fun () -> survived := true));
  Engine.run engine;
  Alcotest.(check bool) "later events still ran" true !survived;
  let errs = Engine.errors engine in
  Alcotest.(check int) "both errors collected" 2 (List.length errs);
  check_float "oldest first" 1. (fst (List.hd errs));
  Engine.clear_errors engine;
  Alcotest.(check int) "cleared" 0 (List.length (Engine.errors engine))

let test_engine_livelock_watchdog () =
  (* A zero-delay self-rescheduling event must trip the watchdog instead
     of hanging the run forever. *)
  let engine = Engine.create ~stall_budget:500 () in
  ignore
    (Engine.schedule engine ~at:1. (fun () ->
         let rec respawn () =
           ignore (Engine.schedule_in engine ~after:0. respawn)
         in
         respawn ()));
  (match Engine.run engine with
  | () -> Alcotest.fail "expected a livelock"
  | exception Engine.Livelock { time; events; kind = Engine.Stall } ->
    check_float "offending instant reported" 1. time;
    Alcotest.(check bool) "budget was spent" true (events > 500);
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    let msg =
      Printexc.to_string (Engine.Livelock { time; events; kind = Engine.Stall })
    in
    Alcotest.(check bool) "time is in the message" true (contains msg "t=1.0")
  | exception Engine.Livelock _ -> Alcotest.fail "wrong livelock kind");
  (* The watchdog fires mid-run but the engine survives: advancing the
     clock resets the stall counter. *)
  ignore (Engine.schedule_in engine ~after:1. (fun () -> ()));
  Alcotest.(check bool) "still steppable" true (Engine.step engine)

let test_engine_event_budget () =
  let engine = Engine.create () in
  let rec chain n =
    ignore
      (Engine.schedule_in engine ~after:0.001 (fun () -> chain (n + 1)))
  in
  chain 0;
  match Engine.run ~max_events:100 engine with
  | () -> Alcotest.fail "expected budget exhaustion"
  | exception Engine.Livelock { events; kind = Engine.Budget; _ } ->
    Alcotest.(check int) "stopped at the budget" 100 events
  | exception Engine.Livelock _ -> Alcotest.fail "wrong livelock kind"

let test_engine_watchdog_spares_bursts () =
  (* Many simultaneous events are normal (incast); only unbounded
     same-instant loops should trip. *)
  let engine = Engine.create ~stall_budget:1000 () in
  let fired = ref 0 in
  for _ = 1 to 900 do
    ignore (Engine.schedule engine ~at:1. (fun () -> incr fired))
  done;
  Engine.run engine;
  Alcotest.(check int) "all burst events ran" 900 !fired

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 1 and b = Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.)) "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check int) "different seeds diverge" 0 !same

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  let xs = List.init 32 (fun _ -> Rng.bits64 parent) in
  let ys = List.init 32 (fun _ -> Rng.bits64 child) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_copy_replays () =
  let a = Rng.create 3 in
  ignore (Rng.float a);
  let b = Rng.copy a in
  Alcotest.(check (float 0.)) "copy replays" (Rng.float a) (Rng.float b)

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 5 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=0" false (Rng.bernoulli rng 0.);
    Alcotest.(check bool) "p=1" true (Rng.bernoulli rng 1.)
  done

let test_rng_bernoulli_rate () =
  let rng = Rng.create 11 in
  let n = 20000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "close to 0.3" true (Float.abs (rate -. 0.3) < 0.02)

let test_rng_exponential_mean () =
  let rng = Rng.create 13 in
  let n = 20000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Rng.exponential rng 2.
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean ~2" true (Float.abs (mean -. 2.) < 0.1)

let prop_rng_float_unit =
  QCheck.Test.make ~name:"Rng.float in [0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let v = Rng.float rng in
      v >= 0. && v < 1.)

let prop_rng_int_bound =
  QCheck.Test.make ~name:"Rng.int in [0,n)" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let v = Rng.int rng n in
      v >= 0 && v < n)

let prop_rng_log_uniform =
  QCheck.Test.make ~name:"log_uniform within bounds" ~count:300
    QCheck.(pair small_int (pair (float_range 0.001 10.) (float_range 0.1 100.)))
    (fun (seed, (lo, extra)) ->
      let hi = lo +. extra in
      let rng = Rng.create seed in
      let v = Rng.log_uniform rng lo hi in
      v >= lo && v <= hi *. (1. +. 1e-9))

let prop_rng_shuffle_multiset =
  QCheck.Test.make ~name:"shuffle preserves elements" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let rng = Rng.create seed in
      let a = Array.of_list l in
      Rng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let q = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "sim.units",
      [
        Alcotest.test_case "conversions" `Quick test_conversions;
        Alcotest.test_case "transmission time" `Quick test_transmission_time;
        Alcotest.test_case "packets of bytes" `Quick test_packets_of_bytes;
        Alcotest.test_case "bdp" `Quick test_bdp;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "event order" `Quick test_engine_order;
        Alcotest.test_case "run until" `Quick test_engine_until;
        Alcotest.test_case "cancel" `Quick test_engine_cancel;
        Alcotest.test_case "past schedule raises" `Quick test_engine_past_raises;
        Alcotest.test_case "NaN rejected: schedule" `Quick
          (nan_rejected "Engine.schedule: time is NaN" (fun e ->
               ignore (Engine.schedule e ~at:nan ignore)));
        Alcotest.test_case "NaN rejected: schedule_in" `Quick
          (nan_rejected "Engine.schedule_in: delay is NaN" (fun e ->
               ignore (Engine.schedule_in e ~after:nan ignore)));
        Alcotest.test_case "NaN rejected: post" `Quick
          (nan_rejected "Engine.post: time is NaN" (fun e ->
               Engine.post e ~at:nan ignore));
        Alcotest.test_case "NaN rejected: post_in" `Quick
          (nan_rejected "Engine.post_in: delay is NaN" (fun e ->
               Engine.post_in e ~after:nan ignore));
        Alcotest.test_case "NaN rejected: post_from" `Quick
          test_engine_nan_post_from;
        Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
        Alcotest.test_case "same-time fifo" `Quick test_engine_same_time_fifo;
        Alcotest.test_case "negative delay clamped" `Quick
          test_engine_negative_delay_clamped;
        Alcotest.test_case "event error carries its time" `Quick
          test_engine_event_error_context;
        Alcotest.test_case "collect policy" `Quick test_engine_collect_policy;
        Alcotest.test_case "livelock watchdog" `Quick
          test_engine_livelock_watchdog;
        Alcotest.test_case "event budget" `Quick test_engine_event_budget;
        Alcotest.test_case "watchdog spares bursts" `Quick
          test_engine_watchdog_spares_bursts;
      ] );
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "copy replays" `Quick test_rng_copy_replays;
        Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
        Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli_rate;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        q prop_rng_float_unit;
        q prop_rng_int_bound;
        q prop_rng_log_uniform;
        q prop_rng_shuffle_multiset;
      ] );
  ]
