(* Result lines and the small statistics the workloads share. *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let median xs =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "Report.median: no samples"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of a sorted int array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float n)) - 1)))

(* Wall seconds of [f ()].  The heap is compacted first, so each timed
   repetition starts from the same heap state, as a fresh process
   would, whatever ran before it. *)
let time_s f =
  Gc.compact ();
  let t0 = Layers.now_ns () in
  let r = f () in
  (r, Layers.seconds (Layers.now_ns () - t0))

(* A correctness gate: says which one failed, on standard error. *)
let gate what ok =
  if not ok then prerr_endline ("perfbench: gate failed: " ^ what);
  ok

type traced = { wall_ns : int; minor_words : float; major_collections : int; sums : bool }

(* Run [f] with the layer timers reset: its wall time, GC deltas, and the
   check that the layers' self times plus the unattributed remainder add
   up to the wall time. *)
let traced f =
  Layers.reset ();
  let st0 = Gc.quick_stat () in
  let t0 = Layers.now_ns () in
  let r = f () in
  let wall_ns = Layers.now_ns () - t0 in
  let st1 = Gc.quick_stat () in
  ( r,
    {
      wall_ns;
      minor_words = st1.Gc.minor_words -. st0.Gc.minor_words;
      major_collections = st1.Gc.major_collections - st0.Gc.major_collections;
      sums =
        gate "layer self times + unattributed = traced wall time"
          (Layers.self_sum_ns () + Layers.unattributed_ns ~wall_ns = wall_ns);
    } )

let ratio a b = if b = 0.0 then 0.0 else a /. b

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else invalid_arg "Report.json_number: not finite"

(* [Layers.self_shares] as a run-description field. *)
let self_shares ~wall_ns =
  ( "self_shares",
    "{"
    ^ String.concat ", "
        (List.map
           (fun (name, v) -> Printf.sprintf "%s: %.4f" (json_string name) v)
           (Layers.self_shares ~wall_ns))
    ^ "}" )

(* The run description line: everything needed to reproduce the run and
   to pair it with others in compare mode.  [fields] are pre-rendered
   JSON values. *)
let print_run ~workload ~seed ~seconds ~trace fields =
  let fields =
    [
      ("bench", json_string "raftpax-perfbench");
      ("workload", json_string workload);
      ("seed", string_of_int seed);
      ("seconds", string_of_int seconds);
      ("trace", string_of_int trace);
    ]
    @ fields
  in
  print_endline
    ("{"
    ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
    ^ "}")

(* The result line — the last line of standard output. *)
let print_result ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun { name; unit_; value } ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
          (json_number value) (json_string unit_))
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " ms)

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
