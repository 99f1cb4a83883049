(* Host time and the host calibration.

   Raw wall time on a shared host moves with contention in the memory
   subsystem, not only with the simulator. Every timed pass is therefore
   bracketed by [kernel], a fixed allocation-plus-random-read workload
   that suffers the same contention, and reported as a ratio to it.

   The kernel is FROZEN: it calls no library code, and changing any
   constant or line of it changes the unit of every recorded [wall_cal].
   Replace it only together with every baseline measured against it. *)

let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

type cell = { key : int; weight : int }

(* 30-bit LCG; callers use its high bits. *)
let lcg x = ((x * 1103515245) + 12345) land 0x3FFF_FFFF

(* Three phases, each matching one way the simulator meets the memory
   system. Together they tracked pass times better than any one alone
   (README.md, Calibration).
   1. Allocate 2^17 small records, which outlive the minor heap and are
      promoted like simulator state, and read 2^19 of them at random;
      twice.
   2. Read 2^19 records at random from a 2^20-record (32 MB) array: a
      working set beyond the caches, like a large pending set.
   3. Allocation churn: 2^20 short-lived records, every eighth kept in a
      64k-slot ring (promotion and overwrite), with a random read of the
      ring per record: like packets and events. *)
let kernel () =
  let acc = ref 0 and x = ref 0x2545F491 in
  for r = 1 to 2 do
    let a = Array.init (1 lsl 17) (fun i -> { key = i lxor r; weight = i land 255 }) in
    for _ = 1 to 1 lsl 19 do
      x := lcg !x;
      let c = a.((!x lsr 11) land ((1 lsl 17) - 1)) in
      acc := !acc + c.key + c.weight
    done
  done;
  let a = Array.init (1 lsl 20) (fun i -> { key = i; weight = i land 255 }) in
  for _ = 1 to 1 lsl 19 do
    x := lcg !x;
    let c = a.((!x lsr 8) land ((1 lsl 20) - 1)) in
    acc := !acc + c.key + c.weight
  done;
  let ring = Array.make 65536 None in
  for i = 1 to 1 lsl 20 do
    x := lcg !x;
    let n = { key = !x; weight = i } in
    if i land 7 = 0 then ring.((!x lsr 9) land 65535) <- Some n;
    match ring.((!x lsr 3) land 65535) with
    | Some m -> acc := !acc + m.key
    | None -> ()
  done;
  Sys.opaque_identity !acc

let kernel_s () = snd (time kernel)

(* Effective parallelism: the same ALU spin on two domains at once
   against one, as work per second. 2.0 means two real cores; a host
   whose two vCPUs share one core reads about 1.0. Median of three. *)
let spin n =
  let x = ref 1 in
  for i = 1 to n do
    x := ((!x * 31) + i) land 0xFF_FFFF
  done;
  Sys.opaque_identity !x

let spin_iters = 30_000_000

let parallelism () =
  let once () =
    let _, one = time (fun () -> spin spin_iters) in
    let _, two =
      time (fun () ->
          let d = Domain.spawn (fun () -> spin spin_iters) in
          ignore (spin spin_iters);
          Domain.join d)
    in
    2. *. one /. two
  in
  let a = Array.init 3 (fun _ -> once ()) in
  Array.sort compare a;
  a.(1)

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6
