module Sim = Raftpax_sim
open Raftpax_kvstore
module Types = Raftpax_consensus.Types

let spec_with ?(read_fraction = 0.9) ?(conflict_rate = 0.05) () =
  { Workload.default with read_fraction; conflict_rate; records = 1000 }

let draw n spec =
  let wl = Workload.create ~seed:9L ~regions:5 spec in
  List.init n (fun i -> Workload.next_op wl ~region:(i mod 5))

let test_read_fraction () =
  let ops = draw 5000 (spec_with ~read_fraction:0.7 ()) in
  let reads = List.length (List.filter Types.is_read ops) in
  let frac = float_of_int reads /. 5000.0 in
  Alcotest.(check bool) (Fmt.str "≈0.7 (%.2f)" frac) true
    (frac > 0.65 && frac < 0.75)

let test_conflict_rate () =
  let ops = draw 5000 (spec_with ~conflict_rate:0.3 ()) in
  let hot =
    List.length (List.filter (fun op -> Types.key_of op = Workload.hot_key) ops)
  in
  let frac = float_of_int hot /. 5000.0 in
  Alcotest.(check bool) (Fmt.str "≈0.3 (%.2f)" frac) true
    (frac > 0.25 && frac < 0.35)

let test_region_partitioning () =
  let spec = spec_with ~conflict_rate:0.0 () in
  let wl = Workload.create ~seed:4L ~regions:5 spec in
  let per_region = spec.Workload.records / 5 in
  for region = 0 to 4 do
    for _ = 1 to 200 do
      let key = Types.key_of (Workload.next_op wl ~region) in
      let lo = 1 + (region * per_region) and hi = (region + 1) * per_region in
      Alcotest.(check bool)
        (Fmt.str "key %d in region %d partition" key region)
        true
        (key >= lo && key <= hi)
    done
  done

let test_write_ids_unique () =
  let ops = draw 2000 (spec_with ~read_fraction:0.0 ()) in
  let ids =
    List.filter_map
      (function Types.Put { write_id; _ } -> Some write_id | Types.Get _ -> None)
      ops
  in
  Alcotest.(check int) "all unique" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_zipfian_skew () =
  (* Under Zipfian 0.99 the head of the per-region key range dominates;
     under Uniform no key does.  conflict_rate 0 so the hot-key path
     doesn't pollute the histogram. *)
  let base = { (spec_with ~read_fraction:0.0 ~conflict_rate:0.0 ()) with Workload.records = 1000 } in
  let top_share key_dist =
    let wl = Workload.create ~seed:11L ~regions:5 { base with Workload.key_dist } in
    let counts = Hashtbl.create 256 in
    let n = 5000 in
    for _ = 1 to n do
      let key = Types.key_of (Workload.next_op wl ~region:2) in
      Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
    done;
    let top = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
    float_of_int top /. float_of_int n
  in
  let zipf = top_share (Workload.Zipfian 0.99) in
  let unif = top_share Workload.Uniform in
  Alcotest.(check bool)
    (Fmt.str "zipf head %.3f >> uniform head %.3f" zipf unif)
    true
    (zipf > 0.05 && unif < 0.03)

let test_zipfian_partition_and_determinism () =
  let spec =
    { (spec_with ~conflict_rate:0.0 ()) with Workload.key_dist = Workload.Zipfian 0.99 }
  in
  let seq () =
    let wl = Workload.create ~seed:3L ~regions:5 spec in
    List.init 500 (fun i -> Workload.next_op wl ~region:(i mod 5))
  in
  Alcotest.(check bool) "same seed, same stream" true (seq () = seq ());
  let per_region = spec.Workload.records / 5 in
  List.iteri
    (fun i op ->
      let region = i mod 5 in
      let key = Types.key_of op in
      let lo = 1 + (region * per_region) and hi = (region + 1) * per_region in
      Alcotest.(check bool)
        (Fmt.str "key %d in region %d partition" key region)
        true
        (key >= lo && key <= hi))
    (seq ())

let test_value_size_respected () =
  let spec = { (spec_with ~read_fraction:0.0 ()) with Workload.value_size = 4096 } in
  let ops = draw 100 spec in
  List.iter
    (function
      | Types.Put { size; _ } -> Alcotest.(check int) "4KB" 4096 size
      | Types.Get _ -> ())
    ops

(* ---- harness ---- *)

let quick_cfg proto =
  Harness.config ~duration_s:4 ~warmup_s:1 ~cooldown_s:1 proto
    {
      Workload.default with
      Workload.clients_per_region = 5;
      records = 500;
    }

let test_harness_runs_all_protocols () =
  List.iter
    (fun proto ->
      let r = Harness.run (quick_cfg proto) in
      Alcotest.(check bool)
        (Harness.protocol_name proto ^ " made progress")
        true
        (r.Harness.throughput_ops > 10.0);
      Alcotest.(check int)
        (Harness.protocol_name proto ^ " consistent")
        0 r.Harness.consistency_violations)
    Harness.all_protocols

(* One spelling table serves every tool: each display and CLI name parses
   back to its protocol, as does every spelling the tools accepted before
   they shared the table. *)
let test_protocol_spellings () =
  let parses s p =
    Alcotest.(check bool) s true (Harness.protocol_of_name s = Some p)
  in
  List.iter
    (fun p ->
      parses (String.lowercase_ascii (Harness.protocol_name p)) p;
      parses (Harness.protocol_name p) p;
      parses (Harness.cli_name p) p)
    Harness.all_protocols;
  List.iter
    (fun (s, p) -> parses s p)
    Harness.
      [
        ("raft", Raft);
        ("raft-star", Raft_star);
        ("raft*", Raft_star);
        ("raft-ll", Raft_ll);
        ("raft-pql", Raft_pql);
        ("raft*-pql", Raft_pql);
        ("pql", Raft_pql);
        ("mencius", Mencius);
        ("raft*-mencius", Mencius);
        ("multipaxos", Multipaxos);
      ];
  Alcotest.(check int) "every constructor listed" 6
    (List.length Harness.all_protocols);
  Alcotest.(check bool) "unknown refused" true
    (Harness.protocol_of_name "paxos" = None)

let test_harness_deterministic () =
  let r1 = Harness.run (quick_cfg Harness.Raft_star) in
  let r2 = Harness.run (quick_cfg Harness.Raft_star) in
  Alcotest.(check (float 0.0001)) "same seed, same throughput"
    r1.Harness.throughput_ops r2.Harness.throughput_ops

let test_harness_seed_changes_run () =
  let cfg = quick_cfg Harness.Raft_star in
  let r1 = Harness.run cfg in
  let r2 = Harness.run { cfg with Harness.seed = 77L } in
  Alcotest.(check bool) "different seeds differ" true
    (r1.Harness.throughput_ops <> r2.Harness.throughput_ops)

let test_pql_beats_raft_on_reads () =
  let r_raft = Harness.run (quick_cfg Harness.Raft) in
  let r_pql = Harness.run (quick_cfg Harness.Raft_pql) in
  let p90 t = Sim.Stats.percentile_us t 0.90 in
  Alcotest.(check bool) "follower reads much faster under PQL" true
    (p90 r_pql.Harness.read_follower * 10 < p90 r_raft.Harness.read_follower)

let test_median_throughput () =
  let cfg = quick_cfg Harness.Raft_star in
  let m = Harness.median_throughput ~trials:3 cfg in
  Alcotest.(check bool) "median positive" true (m > 10.0)

(* ---- sharded serving layer ---- *)

let shard_workload =
  {
    Workload.default with
    Workload.clients_per_region = 5;
    records = 500;
  }

let shard_cfg ?(protocols = [ Harness.Raft_star ]) ?(seed = 1L) shards =
  Shard.config ~protocols ~duration_s:4 ~warmup_s:1 ~cooldown_s:1 ~seed
    ~shards shard_workload

(* Every key routes to exactly one group, the partition is total over the
   key space, and it is a pure function of the key — independent of any
   seed, so reseeding a run cannot move keys between groups. *)
let test_shard_routing_total_and_stable () =
  let keys = List.init 10_000 (fun i -> i + 1) in
  List.iter
    (fun shards ->
      List.iter
        (fun key ->
          let g = Workload.group_of_key ~shards key in
          Alcotest.(check bool)
            (Fmt.str "key %d in [0,%d)" key shards)
            true
            (g >= 0 && g < shards);
          Alcotest.(check int)
            (Fmt.str "key %d stable" key)
            g
            (Workload.group_of_key ~shards key))
        keys)
    [ 1; 2; 3; 4; 8 ]

let test_shard_routing_balanced () =
  let shards = 4 in
  let total = 10_000 in
  let counts = Array.make shards 0 in
  for key = 1 to total do
    let g = Workload.group_of_key ~shards key in
    counts.(g) <- counts.(g) + 1
  done;
  Alcotest.(check int) "partition is total" total (Array.fold_left ( + ) 0 counts);
  Array.iteri
    (fun g n ->
      Alcotest.(check bool)
        (Fmt.str "group %d holds a fair share (%d)" g n)
        true
        (n > total * 15 / 100 && n < total * 35 / 100))
    counts

(* A heterogeneous deployment — different protocols per group — must
   commit in every group under the routed load. *)
let test_shard_heterogeneous_mix_commits () =
  let cfg =
    shard_cfg ~protocols:[ Harness.Raft; Harness.Mencius; Harness.Multipaxos ] 3
  in
  let r = Shard.run cfg in
  Alcotest.(check int) "three groups" 3 (Array.length r.Shard.groups);
  Array.iteri
    (fun i (g : Shard.group_result) ->
      let name = Harness.protocol_name g.Shard.g_protocol in
      Alcotest.(check bool)
        (Fmt.str "group %d (%s) completed ops" i name)
        true (g.Shard.g_ops > 0);
      Alcotest.(check bool)
        (Fmt.str "group %d (%s) committed" i name)
        true
        (g.Shard.g_committed > 0))
    r.Shard.groups;
  Alcotest.(check int) "no violations" 0 r.Shard.violations

(* Cross-shard linearizability: per-group Lin_check oracles over a
   3-shard × 3-protocol × multi-seed matrix must find zero violations. *)
let test_shard_lin_matrix () =
  let mixes =
    [
      [ Harness.Raft; Harness.Mencius; Harness.Multipaxos ];
      [ Harness.Raft_star; Harness.Raft_pql; Harness.Raft ];
      [ Harness.Multipaxos; Harness.Raft_ll; Harness.Mencius ];
    ]
  in
  let reads_checked = ref 0 in
  List.iter
    (fun protocols ->
      List.iter
        (fun seed ->
          let r = Shard.run (shard_cfg ~protocols ~seed 3) in
          Array.iteri
            (fun i (g : Shard.group_result) ->
              Alcotest.(check int)
                (Fmt.str "seed %Ld group %d (%s): zero violations" seed i
                   (Harness.protocol_name g.Shard.g_protocol))
                0 g.Shard.g_violations)
            r.Shard.groups;
          reads_checked := !reads_checked + r.Shard.reads_checked)
        [ 1L; 2L; 3L ])
    mixes;
  Alcotest.(check bool) "oracles actually checked reads" true
    (!reads_checked > 1000)

(* Same seed + same shard config ⇒ byte-identical canonical snapshot and
   bench JSON, including every per-shard metric registry — the same
   discipline test_chaos enforces for nemesis traces. *)
let test_shard_deterministic () =
  let cfg =
    Shard.config
      ~protocols:[ Harness.Raft_star; Harness.Multipaxos ]
      ~duration_s:4 ~warmup_s:1 ~cooldown_s:1 ~seed:7L ~telemetry:true
      ~shards:2 shard_workload
  in
  let a = Shard.run cfg and b = Shard.run cfg in
  Alcotest.(check string)
    "canonical snapshots byte-identical"
    (Shard.snapshot_string cfg a)
    (Shard.snapshot_string cfg b);
  Alcotest.(check string)
    "bench JSON byte-identical"
    (Raftpax_telemetry.Json.to_string (Shard.result_to_json cfg a))
    (Raftpax_telemetry.Json.to_string (Shard.result_to_json cfg b));
  let c = Shard.run { cfg with Shard.seed = 8L } in
  Alcotest.(check bool) "different seed diverges" true
    (Shard.snapshot_string cfg a
    <> Shard.snapshot_string { cfg with Shard.seed = 8L } c)

let test_shard_placement () =
  let site_names sites =
    Array.to_list (Array.map Sim.Topology.site_name sites)
  in
  Alcotest.(check (list string))
    "fixed placement pins every leader"
    [ "Seoul"; "Seoul"; "Seoul" ]
    (site_names (Shard.leader_sites (Shard.Fixed Sim.Topology.Seoul) ~shards:3));
  Alcotest.(check (list string))
    "round-robin cycles the sites"
    [ "Oregon"; "Ohio"; "Ireland"; "Canada"; "Seoul"; "Oregon"; "Ohio" ]
    (site_names (Shard.leader_sites Shard.Round_robin ~shards:7));
  let nm = Shard.leader_sites Shard.Nearest_majority ~shards:5 in
  let rtts =
    Array.to_list (Array.map Sim.Topology.nearest_majority_rtt_ms nm)
  in
  Alcotest.(check (list int))
    "nearest-majority ranks sites by commit RTT"
    (List.sort Int.compare rtts)
    rtts;
  Alcotest.(check string)
    "cheapest-majority site leads the ranking"
    (Sim.Topology.site_name (List.hd Sim.Topology.ranked_by_nearest_majority))
    (Sim.Topology.site_name nm.(0))

let test_shard_protocol_cycling () =
  let cfg =
    shard_cfg ~protocols:[ Harness.Raft; Harness.Mencius ] 5
  in
  Alcotest.(check (list string))
    "protocols cycle over groups"
    [ "Raft"; "Raft*-Mencius"; "Raft"; "Raft*-Mencius"; "Raft" ]
    (List.init 5 (fun g -> Harness.protocol_name (Shard.group_protocol cfg g)))

let () =
  Alcotest.run "kvstore"
    [
      ( "workload",
        [
          Alcotest.test_case "read fraction" `Quick test_read_fraction;
          Alcotest.test_case "conflict rate" `Quick test_conflict_rate;
          Alcotest.test_case "region partition" `Quick test_region_partitioning;
          Alcotest.test_case "unique write ids" `Quick test_write_ids_unique;
          Alcotest.test_case "value size" `Quick test_value_size_respected;
          Alcotest.test_case "zipfian skew" `Quick test_zipfian_skew;
          Alcotest.test_case "zipfian partition + determinism" `Quick
            test_zipfian_partition_and_determinism;
        ] );
      ( "harness",
        [
          Alcotest.test_case "all protocols" `Slow test_harness_runs_all_protocols;
          Alcotest.test_case "protocol spellings" `Quick test_protocol_spellings;
          Alcotest.test_case "deterministic" `Quick test_harness_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_harness_seed_changes_run;
          Alcotest.test_case "pql read advantage" `Slow test_pql_beats_raft_on_reads;
          Alcotest.test_case "median" `Slow test_median_throughput;
        ] );
      ( "shard",
        [
          Alcotest.test_case "routing total and stable" `Quick
            test_shard_routing_total_and_stable;
          Alcotest.test_case "routing balanced" `Quick test_shard_routing_balanced;
          Alcotest.test_case "placement policies" `Quick test_shard_placement;
          Alcotest.test_case "protocol cycling" `Quick test_shard_protocol_cycling;
          Alcotest.test_case "heterogeneous mix commits" `Slow
            test_shard_heterogeneous_mix_commits;
          Alcotest.test_case "cross-shard lin matrix" `Slow test_shard_lin_matrix;
          Alcotest.test_case "deterministic" `Slow test_shard_deterministic;
        ] );
    ]
