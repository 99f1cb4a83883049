(* perfbench: host-calibrated benchmark of the simulator.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   [--trace 0] runs timed, untraced passes of the workload for S host
   seconds and prints the end-to-end metrics; [--trace 1] runs one traced
   pass plus the layer micro-benches and prints the per-layer metrics. The last
   line of stdout is the result object; README.md documents every
   metric. *)

(* Per process; a timed run uses several processes. *)
let min_passes = 2
let max_passes = 1_000

type metric = string * float * string  (** name, value, unit *)

let result_json ~correct ~attempted ~failed (metrics : metric list) =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i (name, v, unit) ->
      (* A metric with no sample (every pass failed) still prints as a
         JSON number; [correct] is already false then. *)
      let v = if Float.is_finite v then v else 0. in
      Printf.bprintf b "%s%s: {\"value\": %.17g, \"unit\": %s}"
        (if i = 0 then "" else ", ")
        (Spans.json_string name) v (Spans.json_string unit))
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

type outcome = { ok : bool; why : string }

(* Run one built pass to the end of the workload and check it: it must
   finish without an engine or shard error, conserve packets and
   capacity, and match [expect] (the first pass's digest) when given. *)
let finish_pass ?parallel ?expect w p =
  match Workloads.advance ?parallel w p ~until:(Workloads.duration w) with
  | exception e -> ({ ok = false; why = Printexc.to_string e }, "")
  | _ -> (
    let d = Workloads.digest p in
    match (Workloads.conservation w p, expect) with
    | Some why, _ -> ({ ok = false; why }, d)
    | None, Some e when e <> d ->
      ({ ok = false; why = Printf.sprintf "digest %s differs from %s" d e }, d)
    | None, _ -> ({ ok = true; why = "" }, d))

(* The untimed 1-shard reference of a sharded workload. *)
let reference w =
  match w.Workloads.shape with
  | Workloads.Engine -> None
  | Workloads.Sharded _ ->
    let p = Workloads.build ~shards:1 w in
    let o, d = finish_pass w p in
    Some (o, d)

(* Timed passes: build, then run the pass bracketed by the calibration
   kernel. A [follower] process of a multi-process run skips the
   parallelism probe and the 1-shard reference; the first process does
   both. *)
let timed ~seconds ~follower ~sabotage (w : Workloads.t) =
  let seed = w.scenario.Pcc_scenario.Scenario.seed in
  if not follower then
    Printf.printf "host-parallelism %.4f\n%!" (Host.parallelism ());
  let reference = if follower then None else reference w in
  Option.iter
    (fun (o, d) ->
      Printf.printf "reference-digest %s seed=%d shards=1 %s\n%!" w.name seed d;
      if not o.ok then Printf.eprintf "reference pass failed: %s\n%!" o.why)
    reference;
  let ratios = ref [] in
  let attempted = ref 0 and failed = ref 0 and first = ref None in
  let goodput = ref nan and heap = ref 0. and setup_s = ref nan in
  let t_start = Host.now () in
  while
    !attempted < max_passes
    && (!attempted < min_passes || Host.now () -. t_start < seconds)
  do
    incr attempted;
    (* The self-test's failing pass: a different seed, so its digest
       cannot match the first pass's. *)
    let w =
      if !attempted = sabotage then
        Workloads.{ w with scenario = { w.scenario with seed = seed + 1 } }
      else w
    in
    let p = Workloads.build w in
    Gc.compact ();
    let k0 = Host.kernel_s () in
    let (o, d), wall =
      Host.time (fun () -> finish_pass ~parallel:true ?expect:!first w p)
    in
    let k1 = Host.kernel_s () in
    let o =
      match reference with
      | Some (r, rd) when o.ok && (not r.ok || rd <> d) ->
        { ok = false; why = "digest differs from the 1-shard reference" }
      | _ -> o
    in
    if !first = None && o.ok then begin
      first := Some d;
      goodput := Workloads.goodput_frac w p;
      Printf.printf "digest %s seed=%d %s\n%!" w.name seed d
    end;
    if not o.ok then begin
      incr failed;
      Printf.eprintf "pass %d failed: %s\n%!" !attempted o.why
    end;
    (* The heap's high-water mark only grows, so it is read after the
       first pass, before the number of passes that fit in the time can
       move it. *)
    if !attempted = 1 then heap := Host.peak_heap_mb ();
    (* Set-up is timed right after the first pass, at the same point of
       every process, so every process times the same sequence of builds;
       after the heap reading, so their garbage does not raise it. *)
    if !attempted = 1 then setup_s := Workloads.setup_s w;
    let cal = (k0 +. k1) /. 2. in
    Printf.printf
      "pass {\"ok\": %b, \"wall_s\": %.9f, \"cal_s\": %.9f, \"ratio\": %.9f}\n%!"
      o.ok wall cal (wall /. cal);
    ratios := (wall /. cal) :: !ratios
  done;
  let attempted = !attempted and failed = !failed in
  let correct =
    failed = 0 && Option.fold ~none:true ~some:(fun (o, _) -> o.ok) reference
  in
  ( correct,
    attempted,
    failed,
    [
      ("wall_cal", Host.median !ratios, "ratio");
      ("setup_s", !setup_s, "s");
      ("peak_heap_mb", !heap, "MB");
      ("goodput_frac", !goodput, "fraction");
      ( "ok_share",
        float_of_int (attempted - failed) /. float_of_int attempted,
        "fraction" );
    ] )

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--follower] [--sabotage-pass K]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10. in
  let trace = ref 0 and sabotage = ref 0 and follower = ref false in
  let rec parse = function
    | "--workload" :: v :: r ->
      workload := v;
      parse r
    | "--seed" :: v :: r ->
      seed := int_of_string_opt v;
      parse r
    | "--seconds" :: v :: r ->
      seconds := (match float_of_string_opt v with Some s -> s | None -> usage ());
      parse r
    | "--trace" :: v :: r ->
      trace := (match v with "0" -> 0 | "1" -> 1 | _ -> usage ());
      parse r
    | "--follower" :: r ->
      follower := true;
      parse r
    | "--sabotage-pass" :: v :: r ->
      sabotage := (match int_of_string_opt v with Some k -> k | None -> usage ());
      parse r
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = match !seed with Some s -> s | None -> usage () in
  let w =
    match Workloads.find !workload ~seed with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " Workloads.names);
      exit 2
  in
  let correct, attempted, failed, metrics =
    if !trace = 0 then
      timed ~seconds:!seconds ~follower:!follower ~sabotage:!sabotage w
    else Layers.traced w
  in
  print_endline (result_json ~correct ~attempted ~failed metrics)
