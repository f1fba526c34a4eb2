(* Tests for the parlint cross-protocol parity pass (lib/lint/parlint).

   Unlike test_lint.ml / test_perflint.ml, the fixtures are whole
   miniature corpora: lint_fixtures/parlint_ok is a clean tree carrying
   one suppressed site per rule, and lint_fixtures/parlint_broken is the
   same tree with one deliberate parity violation per rule obligation it
   exercises.  File roles are detected by path segment, so
   the corpora exercise exactly the code paths the real tree does. *)

module Parlint = Raftpax_lint.Parlint
module Lint = Raftpax_lint.Lint
module Finding = Raftpax_lint.Finding
module Baseline = Raftpax_lint.Baseline

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fixture_dir =
  if Sys.file_exists "lint_fixtures" then "lint_fixtures"
  else Filename.concat "test" "lint_fixtures"

let corpus name = Parlint.lint_paths [ Filename.concat fixture_dir name ]

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i =
    i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  n = 0 || go 0

let count rule findings =
  List.length
    (List.filter (fun f -> String.equal f.Finding.rule rule) findings)

let check_rule_count ~rule ~expect findings =
  Alcotest.(check int)
    (Printf.sprintf "%s findings" rule)
    expect (count rule findings)

let check_mentions ~sub findings =
  Alcotest.(check bool)
    (Printf.sprintf "a finding mentions %s" sub)
    true
    (List.exists (fun f -> contains ~sub f.Finding.message) findings)

(* --- the two corpora --- *)

let test_ok_corpus () =
  (* Every rule has a violating site in this corpus too — each one
     carries a reasoned [@lint.allow], so a clean run asserts that
     suppression works on every attachment point the pass reads. *)
  let fs = corpus "parlint_ok" in
  Alcotest.(check string)
    "ok corpus is clean" ""
    (String.concat "\n" (List.map Finding.render fs))

let broken = lazy (corpus "parlint_broken")

let test_broken_total () =
  Alcotest.(check int) "total findings" 8 (List.length (Lazy.force broken))

let test_broken_wire () =
  let fs = Lazy.force broken in
  check_rule_count ~rule:"wire-coverage" ~expect:1 fs;
  (* Probe is covered nowhere: the one finding lists all four missing
     facets of the porting kit. *)
  check_mentions ~sub:"Raft.Probe" fs;
  check_mentions ~sub:"encode" fs;
  check_mentions ~sub:"golden" fs

let test_broken_knob () =
  let fs = Lazy.force broken in
  check_rule_count ~rule:"knob-threading" ~expect:1 fs;
  check_mentions ~sub:"new_knob" fs

let test_broken_handler () =
  let fs = Lazy.force broken in
  (* Two shapes: a family member missing from one protocol's msg type,
     and a declared member the runtime never dispatches. *)
  check_rule_count ~rule:"handler-parity" ~expect:2 fs;
  check_mentions ~sub:"MAckMulti" fs;
  check_mentions ~sub:"LearnMulti" fs;
  check_mentions ~sub:"never matched" fs

let test_broken_probe () =
  let fs = Lazy.force broken in
  check_rule_count ~rule:"probe-parity" ~expect:1 fs;
  check_mentions ~sub:"leader-change-started" fs

let test_broken_scenario () =
  let fs = Lazy.force broken in
  (* Three obligations: every scenario family batched, every protocol
     constructor in the chaos list declared beside the type, and the
     chaos test iterating that list. *)
  check_rule_count ~rule:"scenario-parity" ~expect:3 fs;
  check_mentions ~sub:"crash_batched" fs;
  check_mentions ~sub:"protocol Raft_ll is missing from chaos_protocols" fs;
  check_mentions ~sub:"the chaos test iterates neither chaos_protocols" fs

(* --- self-gating, parse errors, plumbing --- *)

let test_self_gate () =
  (* A lone consensus file is not a corpus: every cross-file rule
     self-gates on its anchor files being present, so even the broken
     raft.ml is silent on its own. *)
  let src =
    read_file
      (Filename.concat fixture_dir "parlint_broken/lib/consensus/raft.ml")
  in
  Alcotest.(check int)
    "no findings without anchors" 0
    (List.length (Parlint.lint_string ~filename:"lib/consensus/raft.ml" src))

let test_parse_error () =
  let fs = Parlint.lint_string ~filename:"lib/broken.ml" "let let = in" in
  check_rule_count ~rule:"parse-error" ~expect:1 fs;
  Alcotest.(check int) "only the parse error" 1 (List.length fs)

let test_rule_registry () =
  let ids =
    List.sort String.compare (List.map (fun r -> r.Lint.id) Parlint.rules)
  in
  Alcotest.(check (list string))
    "rule ids"
    (List.sort String.compare
       [
         "wire-coverage";
         "knob-threading";
         "handler-parity";
         "probe-parity";
         "scenario-parity";
       ])
    ids;
  Alcotest.(check bool)
    "rule_by_id finds wire-coverage" true
    (match Parlint.rule_by_id "wire-coverage" with
    | Some r -> String.equal r.Lint.id "wire-coverage"
    | None -> false);
  Alcotest.(check bool)
    "rule_by_id rejects unknown" true
    (match Parlint.rule_by_id "no-such-rule" with
    | Some _ -> false
    | None -> true)

let test_baseline_roundtrip () =
  let fs = Lazy.force broken in
  let path = "parlint_test.baseline.tmp" in
  Baseline.save ~tool:"parlint" path fs;
  let b = Baseline.load path in
  Sys.remove path;
  Alcotest.(check int) "baseline size" (List.length fs) (Baseline.size b);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "baseline grandfathers %s" (Finding.key f))
        true (Baseline.mem b f))
    fs;
  Alcotest.(check int) "no stale entries" 0 (List.length (Baseline.stale b fs))

let test_baseline_stale () =
  (* A fixed finding leaves its baseline key dangling: [stale] reports
     it so the baseline can only shrink. *)
  let fs = Lazy.force broken in
  let path = "parlint_test.baseline.tmp" in
  Baseline.save ~tool:"parlint" path fs;
  let b = Baseline.load path in
  Sys.remove path;
  let fixed = List.tl fs in
  let stale = Baseline.stale b fixed in
  Alcotest.(check int) "one stale key" 1 (List.length stale);
  Alcotest.(check string)
    "the fixed finding's key"
    (Finding.key (List.hd fs))
    (List.hd stale)

(* --- the tree itself must be clean --- *)

let test_clean_tree () =
  if Sys.file_exists "../lib" && Sys.is_directory "../lib" then begin
    (* collect_files skips lint_fixtures/, so the broken corpus above
       cannot pollute the real tree's fact base. *)
    let findings =
      Parlint.lint_paths [ "../lib"; "../bin"; "../bench"; "../test" ]
    in
    Alcotest.(check string)
      "no parlint findings in the tree" ""
      (String.concat "\n" (List.map Finding.render findings))
  end

let () =
  Alcotest.run "parlint"
    [
      ( "corpora",
        [
          Alcotest.test_case "ok corpus (suppressed site per rule)" `Quick
            test_ok_corpus;
          Alcotest.test_case "broken corpus total" `Quick test_broken_total;
          Alcotest.test_case "wire-coverage" `Quick test_broken_wire;
          Alcotest.test_case "knob-threading" `Quick test_broken_knob;
          Alcotest.test_case "handler-parity" `Quick test_broken_handler;
          Alcotest.test_case "probe-parity" `Quick test_broken_probe;
          Alcotest.test_case "scenario-parity" `Quick test_broken_scenario;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "single-file self-gate" `Quick test_self_gate;
          Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "rule registry" `Quick test_rule_registry;
          Alcotest.test_case "baseline roundtrip" `Quick
            test_baseline_roundtrip;
          Alcotest.test_case "baseline stale entry" `Quick test_baseline_stale;
        ] );
      ( "tree",
        [ Alcotest.test_case "clean tree" `Quick test_clean_tree ] );
    ]
