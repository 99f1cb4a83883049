(* The event queue: the timing wheel against its contract, and against
   a reference model. The load-bearing property everywhere is exact
   (time, sent, seq) dispatch order — same-time events come out in
   insertion order — so a seeded simulation is byte-identical run after
   run. *)

open Pcc_sim
module TW = Timing_wheel

(* The wheel covers [cur, cur + 2^48) ticks of 1 µs; anything at or
   beyond that horizon waits in the overflow heap. *)
let beyond_horizon = TW.tick_seconds *. 2. ** 48.

(* 1e13 s is past 2^62 µs, where an event's tick no longer fits an
   OCaml int. *)
let past_int_ticks = 1e13

let drain_wheel w =
  let out = ref [] in
  let rec go () =
    match TW.pop w with
    | Some (t, v) ->
      out := (t, v) :: !out;
      go ()
    | None -> ()
  in
  go ();
  List.rev !out

(* Reference model of the queue contract: a list kept sorted on
   (time, sent, seq). Cancel removes the entry if it is still queued. *)
module Model = struct
  type 'a entry = { time : float; sent : float; seq : int; v : 'a }
  type 'a t = { mutable entries : 'a entry list; mutable next : int }

  let create () = { entries = []; next = 0 }
  let key e = (e.time, e.sent, e.seq)

  let push m ~time ?(sent = neg_infinity) v =
    let e = { time; sent; seq = m.next; v } in
    m.next <- m.next + 1;
    m.entries <-
      List.merge (fun a b -> compare (key a) (key b)) [ e ] m.entries;
    e.seq

  let cancel m seq = m.entries <- List.filter (fun e -> e.seq <> seq) m.entries
  let size m = List.length m.entries

  let pop_le m ~max_time =
    match m.entries with
    | e :: rest when e.time <= max_time ->
      m.entries <- rest;
      Some (e.time, e.v)
    | _ -> None

  let pop m = pop_le m ~max_time:infinity
end

(* Same-time events dispatch in insertion order, with push and
   push_unit drawing from one sequence counter. *)
let test_fifo_tie_break () =
  let w = TW.create ~dummy:(-1) () in
  ignore (TW.push w ~time:1. 0);
  TW.push_unit w ~time:1. 1;
  ignore (TW.push w ~time:0.5 2);
  TW.push_unit w ~time:1. 3;
  ignore (TW.push w ~time:1. 4);
  Alcotest.(check (list int))
    "insertion order within a tie" [ 2; 0; 1; 3; 4 ]
    (List.map snd (drain_wheel w));
  (* Sub-tick spacing: distinct times less than a tick apart must still
     come out in time order, not slot order. *)
  let w = TW.create ~dummy:(-1) () in
  ignore (TW.push w ~time:(1. +. 0.9e-6) 0);
  ignore (TW.push w ~time:(1. +. 0.1e-6) 1);
  ignore (TW.push w ~time:1. 2);
  Alcotest.(check (list int))
    "sub-tick times keep exact order" [ 2; 1; 0 ]
    (List.map snd (drain_wheel w))

let test_cancel_accounting () =
  let w = TW.create ~dummy:(-1) () in
  let handles = Array.init 100 (fun i -> TW.push w ~time:(float_of_int i) i) in
  Alcotest.(check int) "size counts live entries" 100 (TW.size w);
  Array.iteri (fun i h -> if i mod 2 = 0 then TW.cancel h) handles;
  Alcotest.(check int) "cancel drops size immediately" 50 (TW.size w);
  TW.cancel handles.(0);
  Alcotest.(check int) "double cancel is a no-op" 50 (TW.size w);
  let popped = drain_wheel w in
  Alcotest.(check (list int))
    "cancelled entries never surface"
    (List.init 50 (fun i -> (2 * i) + 1))
    (List.map snd popped);
  Alcotest.(check int) "empty after drain" 0 (TW.size w);
  Alcotest.(check bool) "is_empty after drain" true (TW.is_empty w);
  (* Cancelling an already-popped event must not disturb a later
     entry reusing its arena slot. *)
  let h = TW.push w ~time:1. 7 in
  Alcotest.(check (list int)) "popped" [ 7 ] (List.map snd (drain_wheel w));
  TW.cancel h;
  ignore (TW.push w ~time:2. 8);
  Alcotest.(check (list int))
    "stale cancel does not kill a reused slot" [ 8 ]
    (List.map snd (drain_wheel w))

(* Events pushed beyond the wheel's horizon park in the overflow heap
   and migrate into the wheel as the clock advances past epoch
   boundaries; global order must survive the trip. *)
let test_overflow_migration () =
  let w = TW.create ~dummy:(-1) () in
  ignore (TW.push w ~time:(beyond_horizon *. 2.5) 0);
  ignore (TW.push w ~time:1. 1);
  ignore (TW.push w ~time:(beyond_horizon +. 2.) 2);
  ignore (TW.push w ~time:(beyond_horizon -. 1.) 3);
  ignore (TW.push w ~time:(beyond_horizon +. 1.) 4);
  let _, _, _, overflow_len, _ = TW.stats w in
  Alcotest.(check bool)
    "far-future events sit in overflow" true (overflow_len >= 3);
  Alcotest.(check (list int))
    "order across epoch migrations" [ 1; 3; 4; 2; 0 ]
    (List.map snd (drain_wheel w));
  (* A cancelled overflow entry must not block the epoch jump. *)
  let w = TW.create ~dummy:(-1) () in
  let h = TW.push w ~time:(beyond_horizon +. 1.) 0 in
  ignore (TW.push w ~time:(beyond_horizon +. 2.) 1);
  TW.cancel h;
  Alcotest.(check (list int))
    "dead overflow minimum is skipped" [ 1 ]
    (List.map snd (drain_wheel w))

(* Times whose tick overflows an int (>= 2^62 µs, and infinity) must
   wait behind every finite event, not jump the queue. *)
let test_far_future_stays_pending () =
  let w = TW.create ~dummy:"" () in
  TW.push_unit w ~time:infinity "inf";
  TW.push_unit w ~time:past_int_ticks "1e13";
  TW.push_unit w ~time:1. "one";
  TW.push_unit w ~time:2. "two";
  Alcotest.(check (option (float 0.))) "peek is the finite minimum" (Some 1.)
    (TW.peek_time w);
  Alcotest.(check (list (pair (float 0.) string)))
    "far-future events fire last, in time order"
    [ (1., "one"); (2., "two"); (past_int_ticks, "1e13"); (infinity, "inf") ]
    (drain_wheel w);
  (* The same through the engine: [next_time] is the conservative fence
     a sharded hub runs to, and [run ~until] must not fire the
     never-event. *)
  let engine = Engine.create () in
  let log = ref [] in
  let note name () = log := (name, Engine.now engine) :: !log in
  Engine.post engine ~at:infinity (note "inf");
  Engine.post engine ~at:1. (note "one");
  ignore (Engine.schedule_in engine ~after:infinity (note "never"));
  Engine.post engine ~at:2. (note "two");
  Alcotest.(check (option (float 0.))) "next_time" (Some 1.)
    (Engine.next_time engine);
  Engine.run ~until:10. engine;
  Alcotest.(check (list (pair string (float 0.))))
    "run ~until fires the finite events"
    [ ("one", 1.); ("two", 2.) ]
    (List.rev !log);
  Alcotest.(check int) "infinite events still pending" 2
    (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check (list string))
    "drained in (time, seq) order"
    [ "one"; "two"; "inf"; "never" ]
    (List.rev_map fst !log)

(* An event that keeps rescheduling itself at the current instant never
   lets the clock advance; the engine's stall watchdog must convert
   that hang into Livelock Stall. *)
let test_zero_delay_livelock () =
  let engine = Engine.create () in
  let rec respawn () = Engine.post engine ~at:(Engine.now engine) respawn in
  Engine.post engine ~at:0.1 respawn;
  match Engine.run ~until:1. engine with
  | () -> Alcotest.fail "zero-delay loop terminated"
  | exception Engine.Livelock { kind = Engine.Stall; time; _ } ->
    Alcotest.(check (float 1e-9)) "stalled at the loop instant" 0.1 time
  | exception Engine.Livelock { kind = Engine.Budget; _ } ->
    Alcotest.fail "expected Stall, got Budget"

(* Randomized differential against the reference model: an arbitrary
   interleaving of pushes (times from ns to years, beyond the horizon,
   past int ticks and infinity; duplicate times and explicit [sent]
   instants included), cancels (stale ones too), pops and bounded pops
   must agree on every result and on the live count after every step. *)
let test_model_differential () =
  let rng = Rng.create 20260809 in
  let draw_time () =
    match Rng.int rng 5 with
    | 0 -> Rng.uniform rng 0. 1e-4
    | 1 -> Rng.uniform rng 0. 10.
    | 2 -> float_of_int (Rng.int rng 4)
    | 3 -> Rng.uniform rng 0. (beyond_horizon *. 2.)
    | _ -> if Rng.bool rng then past_int_ticks else infinity
  in
  let show = function
    | None -> "none"
    | Some (t, v) -> Printf.sprintf "(%h, %d)" t v
  in
  for round = 1 to 20 do
    let m = Model.create () in
    let w = TW.create ~dummy:(-1) () in
    (* (wheel handle, model seq) of every cancellable push so far. *)
    let handles = ref [||] in
    let agree op i a b =
      if a <> b then
        Alcotest.failf "round %d op %d %s: model %s vs wheel %s" round i op
          (show a) (show b)
    in
    for i = 0 to 999 do
      (match Rng.int rng 10 with
      | 0 | 1 | 2 | 3 | 4 ->
        let time = draw_time () in
        let sent =
          match Rng.int rng 3 with
          | 0 -> None
          | 1 -> Some (float_of_int (Rng.int rng 3))
          | _ -> Some (Rng.uniform rng 0. 3.)
        in
        let seq = Model.push m ~time ?sent i in
        if Rng.bool rng then
          handles := Array.append !handles [| (TW.push w ~time ?sent i, seq) |]
        else TW.push_unit w ~time ?sent i
      | 5 -> agree "pop" i (Model.pop m) (TW.pop w)
      | 6 ->
        let max_time = draw_time () in
        agree "pop_le" i (Model.pop_le m ~max_time) (TW.pop_le w ~max_time)
      | _ ->
        if Array.length !handles > 0 then begin
          let h, seq = !handles.(Rng.int rng (Array.length !handles)) in
          Model.cancel m seq;
          TW.cancel h
        end);
      if Model.size m <> TW.size w then
        Alcotest.failf "round %d op %d: model size %d vs wheel size %d" round i
          (Model.size m) (TW.size w)
    done;
    let rec drain i =
      let a = Model.pop m and b = TW.pop w in
      agree "drain" i a b;
      if a <> None then drain (i + 1)
    in
    drain 1000
  done

(* End-to-end: a registry experiment renders byte-identically twice at
   a fixed seed. Uses the many-flow stress entry — the scenario built
   to exercise the wheel — at a tiny population. *)
let test_experiment_byte_identity () =
  let render () =
    match Pcc_experiments.Exp_registry.find "manyflow" with
    | None -> Alcotest.fail "manyflow not registered"
    | Some e -> e.Pcc_experiments.Exp_registry.render ~scale:0.005 ~seed:7 ()
  in
  let first = render () in
  Alcotest.(check string) "identical rendering" first (render ())

(* ------------------------------------------------------------------ *)
(* Queue contract cases. The suite names sim.event_heap and
   event_heap.live_count date from when a binary heap was the queue;
   the contract they pin — time order, FIFO ties, lazy cancellation
   with an exact live count — is the wheel's now, so the cases run on
   it under their original names. *)

let pop_value w = match TW.pop w with Some (_, v) -> v | None -> "?"

let test_pop_order () =
  let w = TW.create ~dummy:"" () in
  ignore (TW.push w ~time:3. "c");
  ignore (TW.push w ~time:1. "a");
  ignore (TW.push w ~time:2. "b");
  let first = pop_value w in
  let second = pop_value w in
  let third = pop_value w in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ]
    [ first; second; third ];
  Alcotest.(check bool) "empty" true (TW.is_empty w)

let test_fifo_ties () =
  let w = TW.create ~dummy:"" () in
  ignore (TW.push w ~time:1. "first");
  ignore (TW.push w ~time:1. "second");
  ignore (TW.push w ~time:1. "third");
  let a = pop_value w in
  let b = pop_value w in
  let c = pop_value w in
  Alcotest.(check (list string)) "insertion order on ties"
    [ "first"; "second"; "third" ]
    [ a; b; c ]

let test_cancellation () =
  let w = TW.create ~dummy:"" () in
  let _a = TW.push w ~time:1. "a" in
  let b = TW.push w ~time:2. "b" in
  ignore (TW.push w ~time:3. "c");
  TW.cancel b;
  Alcotest.(check bool) "cancelled" true (TW.cancelled b);
  let first = pop_value w in
  let second = pop_value w in
  Alcotest.(check (list string)) "skips cancelled" [ "a"; "c" ]
    [ first; second ];
  (* Cancelling twice is harmless. *)
  TW.cancel b

let test_cancel_root () =
  let w = TW.create ~dummy:"" () in
  let a = TW.push w ~time:1. "a" in
  ignore (TW.push w ~time:2. "b");
  TW.cancel a;
  Alcotest.(check (option (float 0.))) "peek skips dead root" (Some 2.)
    (TW.peek_time w);
  Alcotest.(check int) "size purges root" 1 (TW.size w)

let prop_sorted_pops =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun times ->
      let w = TW.create ~dummy:() () in
      List.iter (fun t -> TW.push_unit w ~time:t ()) times;
      let popped = List.map fst (drain_wheel w) in
      List.length popped = List.length times
      && popped = List.sort compare times)

let test_size_buried_cancel () =
  let w = TW.create ~dummy:0. () in
  let handles =
    List.map (fun t -> (t, TW.push w ~time:t t)) [ 5.; 1.; 4.; 2.; 3. ]
  in
  Alcotest.(check int) "five live" 5 (TW.size w);
  (* Cancel entries that are not the earliest (times 4 and 5): they stay
     stored but must stop counting immediately. *)
  List.iter (fun (t, h) -> if t >= 4. then TW.cancel h) handles;
  Alcotest.(check int) "three live after burying two" 3 (TW.size w);
  Alcotest.(check bool) "not empty" false (TW.is_empty w);
  (* Pops only surface the live ones, in order. *)
  let order = List.filter_map (fun _ -> TW.pop w) [ (); (); (); () ] in
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "live events in time order"
    [ (1., 1.); (2., 2.); (3., 3.) ]
    order;
  Alcotest.(check int) "drained" 0 (TW.size w);
  Alcotest.(check bool) "empty" true (TW.is_empty w)

let test_cancel_all_is_empty () =
  let w = TW.create ~dummy:(-1) () in
  let handles = List.init 8 (fun i -> TW.push w ~time:(float_of_int i) i) in
  List.iter TW.cancel handles;
  Alcotest.(check int) "size 0 with 8 dead entries stored" 0 (TW.size w);
  Alcotest.(check bool) "is_empty despite stored entries" true (TW.is_empty w);
  Alcotest.(check bool) "pop finds nothing" true (TW.pop w = None)

let test_cancel_after_pop () =
  let w = TW.create ~dummy:"" () in
  let a = TW.push w ~time:1. "a" in
  let _b = TW.push w ~time:2. "b" in
  Alcotest.(check bool) "popped a" true (TW.pop w = Some (1., "a"));
  (* Cancelling a's handle after it was popped must not corrupt the
     count of the remaining live entry. *)
  TW.cancel a;
  TW.cancel a;
  Alcotest.(check int) "b still counted" 1 (TW.size w);
  Alcotest.(check bool) "cancelled is false for popped" false (TW.cancelled a);
  Alcotest.(check bool) "popped b" true (TW.pop w = Some (2., "b"))

let test_double_cancel () =
  let w = TW.create ~dummy:0 () in
  let a = TW.push w ~time:1. 1 in
  let _b = TW.push w ~time:2. 2 in
  TW.cancel a;
  TW.cancel a;
  Alcotest.(check int) "double cancel decrements once" 1 (TW.size w)

let test_pop_le () =
  let w = TW.create ~dummy:0 () in
  let _ = TW.push w ~time:1. 1 in
  let two = TW.push w ~time:2. 2 in
  let _ = TW.push w ~time:3. 3 in
  Alcotest.(check bool) "pop_le below earliest" true
    (TW.pop_le w ~max_time:0.5 = None);
  Alcotest.(check int) "pop_le None removed nothing" 3 (TW.size w);
  Alcotest.(check bool) "pop_le at 2.5 gives 1" true
    (TW.pop_le w ~max_time:2.5 = Some (1., 1));
  TW.cancel two;
  (* The cancelled 2 must be skipped without being returned. *)
  Alcotest.(check bool) "pop_le skips cancelled" true
    (TW.pop_le w ~max_time:2.5 = None);
  Alcotest.(check int) "only 3 remains" 1 (TW.size w);
  Alcotest.(check bool) "3 still there" true
    (TW.pop_le w ~max_time:10. = Some (3., 3))

let test_tie_break_fifo () =
  let w = TW.create ~dummy:"" () in
  List.iter (fun v -> ignore (TW.push w ~time:1. v)) [ "a"; "b"; "c" ];
  let order = List.filter_map (fun _ -> TW.pop w) [ (); (); () ] in
  Alcotest.(check (list (pair (float 0.) string)))
    "simultaneous events pop in insertion order"
    [ (1., "a"); (1., "b"); (1., "c") ]
    order

let suites =
  [
    ( "sim.event_heap",
      [
        Alcotest.test_case "pop order" `Quick test_pop_order;
        Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
        Alcotest.test_case "cancellation" `Quick test_cancellation;
        Alcotest.test_case "cancel root" `Quick test_cancel_root;
        QCheck_alcotest.to_alcotest prop_sorted_pops;
      ] );
    ( "event_heap.live_count",
      [
        Alcotest.test_case "buried cancellations" `Quick test_size_buried_cancel;
        Alcotest.test_case "cancel all -> empty" `Quick test_cancel_all_is_empty;
        Alcotest.test_case "cancel after pop" `Quick test_cancel_after_pop;
        Alcotest.test_case "double cancel" `Quick test_double_cancel;
        Alcotest.test_case "pop_le" `Quick test_pop_le;
        Alcotest.test_case "FIFO tie-break" `Quick test_tie_break_fifo;
      ] );
    ( "sim.scheduler",
      [
        Alcotest.test_case "wheel same-time FIFO tie-break" `Quick
          test_fifo_tie_break;
        Alcotest.test_case "wheel cancel-then-pop accounting" `Quick
          test_cancel_accounting;
        Alcotest.test_case "wheel overflow migration" `Quick
          test_overflow_migration;
        Alcotest.test_case "far-future events stay pending" `Quick
          test_far_future_stays_pending;
        Alcotest.test_case "zero-delay livelock watchdog" `Quick
          test_zero_delay_livelock;
        Alcotest.test_case "randomized reference-model differential" `Quick
          test_model_differential;
        Alcotest.test_case "experiment byte-identity (same-seed double render)"
          `Quick test_experiment_byte_identity;
      ] );
  ]
