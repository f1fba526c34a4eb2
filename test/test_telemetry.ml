(* Telemetry oracles:

   - determinism: the same (protocol, seed) must produce a byte-identical
     span dump and metric snapshot, both through the kvstore harness and
     through a full nemesis run (whose trace fingerprint now covers the
     METRIC lines);
   - histogram accuracy: the log-bucketed quantile is within the
     documented bucket error of the exact value;
   - disabled telemetry is free: marking spans and bumping counters on
     the disabled registry allocates nothing;
   - waterfalls account for everything: per request, the sum of phase
     durations (= last mark - first mark) equals the recorded latency;
   - probes cover every replica: a telemetry run leaves non-zero
     protocol counters on all five nodes. *)

module Tel = Raftpax_telemetry
module Telemetry = Tel.Telemetry
module Metrics = Tel.Metrics
module Span = Tel.Span
module H = Raftpax_kvstore.Harness
module W = Raftpax_kvstore.Workload
module N = Raftpax_nemesis

let workload =
  {
    W.read_fraction = 0.5;
    conflict_rate = 0.1;
    value_size = 8;
    records = 1000;
    clients_per_region = 2;
    key_dist = W.Uniform;
  }

let traced_run proto seed =
  H.run
    (H.config ~duration_s:2 ~warmup_s:0 ~cooldown_s:0 ~seed ~tracing:true proto
       workload)

let telemetry_of (r : H.result) =
  match r.H.telemetry with
  | Some tel -> tel
  | None -> Alcotest.fail "tracing run returned no telemetry"

(* ---- determinism ---- *)

let test_harness_determinism () =
  List.iter
    (fun proto ->
      let a = telemetry_of (traced_run proto 7L) in
      let b = telemetry_of (traced_run proto 7L) in
      Alcotest.(check string)
        (H.protocol_name proto ^ " metric snapshot")
        (Telemetry.snapshot_string a)
        (Telemetry.snapshot_string b);
      Alcotest.(check string)
        (H.protocol_name proto ^ " span dump")
        (Span.dump a.Telemetry.spans)
        (Span.dump b.Telemetry.spans))
    [ H.Raft_pql; H.Mencius; H.Multipaxos ]

let test_nemesis_determinism () =
  let cfg = N.Nemesis.config ~chaos_steps:5 ~clients:2 H.Raft ~seed:11 in
  let a = N.Nemesis.run cfg in
  let b = N.Nemesis.run cfg in
  Alcotest.(check string)
    "trace fingerprint (covers METRIC lines)"
    (N.Trace.fingerprint a.N.Nemesis.trace)
    (N.Trace.fingerprint b.N.Nemesis.trace);
  Alcotest.(check string)
    "metric snapshot"
    (Telemetry.snapshot_string a.N.Nemesis.telemetry)
    (Telemetry.snapshot_string b.N.Nemesis.telemetry)

(* ---- histogram accuracy ---- *)

let test_histogram_quantiles () =
  let m = Metrics.create ~n:1 in
  let h = Metrics.histogram m "lat" ~node:0 in
  (* 1..1000 uniformly: exact p-quantile of the sample is about 1000p *)
  for v = 1 to 1000 do
    Metrics.observe h v
  done;
  Alcotest.(check int) "count" 1000 (Metrics.hist_count h);
  Alcotest.(check int) "sum" 500_500 (Metrics.hist_sum h);
  List.iter
    (fun p ->
      let exact = int_of_float (ceil (p *. 1000.0)) in
      let q = Metrics.quantile h p in
      if q < exact then
        Alcotest.failf "quantile %.2f: %d below exact %d" p q exact;
      if q > 2 * max 1 exact then
        Alcotest.failf "quantile %.2f: %d beyond bucket error of exact %d" p q
          exact)
    [ 0.50; 0.90; 0.99 ]

(* ---- disabled telemetry allocates nothing ---- *)

let test_disabled_zero_alloc () =
  let spans = Span.disabled in
  let m = Metrics.disabled in
  let c = Metrics.counter m "noop" ~node:0 in
  let h = Metrics.histogram m "noop_h" ~node:0 in
  (* warm up so any one-time boxing is out of the measured window *)
  Span.mark spans ~trace:0 ~node:0 ~phase:"p" ~now:0;
  Metrics.inc c;
  Metrics.observe h 1;
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    Span.mark spans ~trace:i ~node:0 ~phase:"p" ~now:i;
    Metrics.inc c;
    Metrics.observe h i
  done;
  let delta = Gc.minor_words () -. w0 in
  (* a handful of words come from boxing the Gc counters themselves; real
     per-mark allocation would cost tens of thousands of words *)
  if delta > 100.0 then
    Alcotest.failf "disabled telemetry allocated %.0f minor words" delta

(* ---- waterfalls account for the full latency ---- *)

let test_waterfall_sums () =
  List.iter
    (fun proto ->
      let r = traced_run proto 3L in
      let tel = telemetry_of r in
      if r.H.requests = [] then
        Alcotest.failf "%s: no requests traced" (H.protocol_name proto);
      List.iter
        (fun (req : H.request) ->
          let total = Span.total_us tel.Telemetry.spans ~trace:req.H.trace in
          if total <> req.H.latency_us then
            Alcotest.failf "%s: trace %d phase sum %dus <> latency %dus"
              (H.protocol_name proto) req.H.trace total req.H.latency_us)
        r.H.requests)
    [ H.Raft_pql; H.Raft; H.Mencius; H.Multipaxos ]

(* ---- every replica shows protocol activity ---- *)

let test_counters_all_nodes () =
  let r = traced_run H.Raft_pql 1L in
  let tel = telemetry_of r in
  let m = tel.Telemetry.metrics in
  for node = 0 to 4 do
    if Metrics.counter_value m "commits" ~node = 0 then
      Alcotest.failf "node %d: commits counter is zero" node
  done;
  Alcotest.(check bool)
    "appends flow" true
    (Metrics.counter_value m "appends_sent" ~node:0 > 0
    || Metrics.counter_value m "appends_sent" ~node:1 > 0)

let () =
  Alcotest.run "telemetry"
    [
      ( "determinism",
        [
          Alcotest.test_case "harness same-seed" `Quick test_harness_determinism;
          Alcotest.test_case "nemesis same-seed" `Quick test_nemesis_determinism;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "disabled zero-alloc" `Quick test_disabled_zero_alloc;
          Alcotest.test_case "counters on all nodes" `Quick test_counters_all_nodes;
        ] );
      ( "spans",
        [ Alcotest.test_case "waterfall sums" `Quick test_waterfall_sums ] );
    ]
