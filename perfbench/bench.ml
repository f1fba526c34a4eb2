(* The repository benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Untraced (--trace 0) it prints every end-to-end metric; traced
   (--trace 1) it prints every per-layer metric, after checking that the
   traced rebuild reproduces the untraced run.  Either way the last line
   of standard output is the result object, preceded by one line that
   records the run's configuration.  Correctness gates set "correct". *)

let end_to_end =
  [
    ("setup_s", "s");
    ("run_s", "s");
    ("ops_per_s", "1/s");
    ("p50_ms", "ms");
    ("p99_ms", "ms");
    ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    ("engine.events_per_op", "count");
    ("engine.events_per_s", "1/s");
    ("engine.self_s", "s");
    ("net.msgs_per_op", "count");
    ("net.bytes_per_op", "B");
    ("net.send_ns", "ns");
    ("net.uplink_wait_p99_ms", "ms");
    ("cpu.leader_util", "ratio");
    ("cpu.queue_wait_p99_ms", "ms");
    ("consensus.submit_ns", "ns");
    ("consensus.deliver_ns", "ns");
    ("consensus.ops_per_flush", "count");
    ("consensus.local_read_ratio", "ratio");
    ("consensus.lease_waits_per_op", "count");
    ("consensus.retransmits_per_op", "count");
    ("consensus.elections", "count");
    ("workload.next_op_ns", "ns");
    ("lin_check.s", "s");
    ("lin_check.reads_checked", "count");
    ("wire.encode_ns", "ns");
    ("wire.decode_ns", "ns");
    ("wire.bytes_per_msg", "B");
    ("framing.frame_ns", "ns");
    ("transport.send_ns", "ns");
    ("transport.recv_ns", "ns");
    ("transport.select_wait_frac", "ratio");
    ("model.build_ms", "ms");
    ("model.apply_us", "us");
    ("model.fingerprint_us", "us");
    ("model.violation_us", "us");
    ("model.choices_us", "us");
    ("model.build_share", "ratio");
    ("model.fingerprint_share", "ratio");
    ("checker.builds_per_transition", "count");
    ("checker.states", "count");
    ("checker.transitions", "count");
    ("checker.transitions_per_s", "1/s");
    ("checker.prefix_s", "s");
    ("client.read_p50_ms", "ms");
    ("client.read_p99_ms", "ms");
    ("client.write_p50_ms", "ms");
    ("client.write_p99_ms", "ms");
    ("client.failed_ratio", "ratio");
    ("client.lag_p99_ms", "ms");
    ("gc.minor_words_per_op", "count");
    ("gc.major_collections", "count");
    ("trace.wall_s", "s");
    ("trace.unattributed_s", "s");
    ("trace.overhead_ratio", "ratio");
  ]

let workloads =
  [
    ("lease-reads", Sim_bench.lease_reads);
    ("sharded-writes", Sim_bench.sharded_writes);
    ("mcheck-steady", Mcheck_bench.run);
    ("net-loopback", Net_bench.run);
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  " ^ String.concat "|" (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_int seconds, "S  measurement time per run");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics, or the traced per-layer run");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        prerr_endline ("bench.exe: unknown workload " ^ !workload);
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "bench.exe: --seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  let o : Outcome.t = run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
  let names = if !trace = 1 then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.assoc_opt name o.Outcome.values with
        | Some v -> Report.m name unit_ v
        | None when !trace = 1 -> Report.m name unit_ 0.0
        | None -> failwith ("workload did not measure " ^ name))
      names
  in
  (match List.filter (fun (n, _) -> not (List.mem_assoc n names)) o.Outcome.values with
  | [] -> ()
  | (n, _) :: _ -> failwith ("workload measured an undeclared metric " ^ n));
  Report.print_run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace
    (("correct", string_of_bool o.Outcome.correct) :: o.Outcome.info);
  Report.print_result ~correct:o.Outcome.correct ~attempted:o.Outcome.attempted
    ~failed:o.Outcome.failed metrics
