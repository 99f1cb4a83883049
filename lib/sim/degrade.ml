(* Deterministic degradation ladder over sharded execution width.

   Shard.run's byte-identical contract — a seeded simulation produces
   the same output at any shard count and in Sequential or Parallel
   mode — means a run that dies with a Lane_failure can be transparently
   rebuilt and retried narrower without changing its result. The ladder
   halves the width each rung down to a 1-shard sequential run; chaos
   injection is gated off at one shard (Shard.chaos_raise), so injected
   faults always terminate at the bottom rung, while a genuine
   deterministic bug fails every rung and surfaces as the final rung's
   Lane_failure — the correct outcome, with full forensics.

   The per-domain step tally lets the supervisor account a task as
   "degraded" without threading a reporter through every task closure:
   the ladder bumps the calling domain's counter once per step, and the
   supervisor reads-and-resets it around each task. *)

type attempt = { shards : int; domains : int }

type step = {
  attempt : attempt;  (* the rung that failed *)
  shard : int;
  round : int;
  wedged : bool;
  exn_text : string;
  backtrace : string;
  wall_s : float;  (* wall time lost to the failed rung (0 w/o clock) *)
}

type 'a outcome = {
  value : 'a;
  attempt : attempt;  (* the rung that succeeded *)
  steps : step list;  (* failed rungs, in ladder order *)
}

let plan ?domains ~shards () =
  if shards < 1 then invalid_arg "Degrade.plan: shards must be >= 1";
  let dmax =
    match domains with
    | None -> 1
    | Some d when d >= 1 -> d
    | Some _ -> invalid_arg "Degrade.plan: domains must be >= 1"
  in
  let rec widths w acc =
    if w <= 1 then List.rev (1 :: acc) else widths (w / 2) (w :: acc)
  in
  let widths = if shards = 1 then [ 1 ] else widths shards [] in
  List.map
    (fun w -> { shards = w; domains = (if w = 1 then 1 else min dmax w) })
    widths

(* Process-wide default, toggled by --no-fallback on the CLI: the
   ladder runs deep inside experiment tasks, so the switch flows
   through ambient state (an Atomic, as worker domains read it). *)
let fallback_cell = Atomic.make true
let set_fallback enabled = Atomic.set fallback_cell enabled
let fallback_enabled () = Atomic.get fallback_cell

let tally_key = Domain.DLS.new_key (fun () -> ref 0)

let take_tally () =
  let r = Domain.DLS.get tally_key in
  let v = !r in
  r := 0;
  v

let run ?enabled ?(clock = fun () -> 0.) ?(report = fun _ -> ()) ~plan f =
  let enabled =
    match enabled with Some e -> e | None -> fallback_enabled ()
  in
  match plan with
  | [] -> invalid_arg "Degrade.run: empty plan"
  | first :: rest ->
    let rec attempt a rest steps =
      let t0 = clock () in
      match f a with
      | value -> { value; attempt = a; steps = List.rev steps }
      | exception
          Shard.Lane_failure { shard; round; wedged; origin; backtrace }
        when enabled && rest <> [] ->
        let step =
          {
            attempt = a;
            shard;
            round;
            wedged;
            exn_text = Printexc.to_string origin;
            backtrace;
            wall_s = clock () -. t0;
          }
        in
        incr (Domain.DLS.get tally_key);
        report step;
        (match rest with
        | a' :: rest' -> attempt a' rest' (step :: steps)
        | [] -> assert false)
    in
    attempt first rest []
