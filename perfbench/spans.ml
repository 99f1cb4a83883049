(* Bench-side spans: name, start, end and parent of each call the
   benchmark makes into a layer, kept in memory and written out at the
   end as Chrome trace-event JSON (loads in Perfetto). *)

type span = {
  id : int;
  parent : int;  (** [-1] at the root. *)
  name : string;
  layer : string;
  start : float;
  stop : float;
}

let spans = ref []
let stack = ref []
let next_id = ref 0

let with_span ~layer name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let start = Host.now () in
  let finish () =
    spans := { id; parent; name; layer; start; stop = Host.now () } :: !spans;
    stack := List.tl !stack
  in
  Fun.protect ~finally:finish f

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let chrome_json () =
  let l = List.sort (fun a b -> compare a.id b.id) !spans in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity l in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  Buffer.add_string b
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"perfbench\"}}";
  List.iter
    (fun s ->
      Printf.bprintf b
        ",\n{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
        (json_string s.name) (json_string s.layer)
        ((s.start -. t0) *. 1e6)
        ((s.stop -. s.start) *. 1e6)
        s.id s.parent)
    l;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let write path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_json ()))
