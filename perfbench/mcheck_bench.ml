(* The [mcheck-steady] workload: the model checker's breadth-first
   search over three steady-state scopes, one per runtime family.  No
   WAN timing, bandwidth or long histories: world construction
   ([Model.build], which includes the runtimes' [create]) and state
   fingerprinting do nearly all the work.

   Untraced, each scope is checked by [Checker.check] as a black box.
   Traced, the search is rebuilt from [Model]'s public functions with
   every call timed, and must reach [Checker.check]'s states,
   transitions and verdict. *)

module Model = Raftpax_mcheck.Model
module Checker = Raftpax_mcheck.Checker
module Scenario = Raftpax_mcheck.Scenario

let scope_names =
  [ "steady-sym-raft*-pql-batched"; "steady-raft*-mencius"; "steady-multipaxos" ]

(* The seed picks the order the scopes run in; the scopes themselves are
   fixed. *)
let scopes ~seed =
  let k = abs seed mod List.length scope_names in
  List.filteri (fun i _ -> i >= k) scope_names @ List.filteri (fun i _ -> i < k) scope_names

(* Scenario values hold single-use policy state: look up a fresh one per
   use. *)
let scenario name =
  match Scenario.by_name name with
  | Some sc -> sc
  | None -> failwith ("unknown mcheck scope " ^ name)

let setup_reps = 5

let time_s = Report.time_s

(* Set-up: build each scope's world and run its scripted policy prefix —
   everything before the first explored transition. *)
let setup_once names =
  List.iter
    (fun name ->
      let sc = scenario name in
      let prefix = Checker.compute_prefix sc in
      ignore (Checker.replay sc prefix []))
    names

let verdict_ok (r : Checker.result) =
  r.Checker.r_complete && r.Checker.r_goal_reached && r.Checker.r_violation = None

let verdict_string (r : Checker.result) =
  Printf.sprintf "%s states=%d transitions=%d complete=%b goal=%b goal_len=%s violation=%b"
    r.Checker.r_scenario r.Checker.r_states r.Checker.r_transitions r.Checker.r_complete
    r.Checker.r_goal_reached
    (match r.Checker.r_goal_schedule with
    | Some s -> string_of_int (List.length s)
    | None -> "-")
    (r.Checker.r_violation <> None)

let gate = Report.gate

(* ---- the traced rebuild of [Checker.check] ---- *)

let l_prefix = Layers.make "checker.prefix"
let l_build = Layers.make "model.build"
let l_apply = Layers.make "model.apply"
let l_choices = Layers.make "model.choices"
let l_mono = Layers.make "model.mono"
let l_violation = Layers.make "model.violation"
let l_fingerprint = Layers.make "model.fingerprint"
let l_goal = Layers.make "model.goal"

let max_states = 200_000
let max_depth = 60

(* Same search, same order, same budgets as [Checker.check]; a violation
   only has to be noticed, not narrated. *)
let traced_check sc =
  let prefix = Layers.time l_prefix (fun () -> Checker.compute_prefix sc) in
  let replay rev_suffix =
    let w = Layers.time l_build (fun () -> Model.build sc) in
    List.iter (fun c -> Layers.time l_apply (fun () -> Model.apply w c)) prefix;
    List.iter (fun c -> Layers.time l_apply (fun () -> Model.apply w c)) (List.rev rev_suffix);
    w
  in
  let w0 = replay [] in
  let timer_budget = sc.Model.sc_timer_budget + Model.timers_fired w0 in
  let crash_budget = sc.Model.sc_crash_budget + Model.crashes w0 in
  let visited = Hashtbl.create 4096 in
  let frontier = Queue.create () in
  let states = ref 0 and transitions = ref 0 in
  let complete = ref true in
  let goal_schedule = ref None in
  let violation = ref false in
  if Layers.time l_violation (fun () -> Model.violation w0) <> None then violation := true;
  Hashtbl.replace visited (Layers.time l_fingerprint (fun () -> Model.fingerprint w0)) ();
  incr states;
  if Layers.time l_goal (fun () -> Model.goal_reached w0) then goal_schedule := Some prefix
  else Queue.push ([], 0) frontier;
  while (not !violation) && not (Queue.is_empty frontier) do
    let rev_suffix, depth = Queue.pop frontier in
    let w = replay rev_suffix in
    let cs = Layers.time l_choices (fun () -> Model.choices ~timer_budget ~crash_budget w) in
    if depth >= max_depth && cs <> [] then complete := false
    else
      List.iter
        (fun c ->
          if not !violation then begin
            let w' = replay rev_suffix in
            let before = Layers.time l_mono (fun () -> Model.mono_views w') in
            Layers.time l_apply (fun () -> Model.apply w' c);
            incr transitions;
            let after = Layers.time l_mono (fun () -> Model.mono_views w') in
            let bad =
              match Layers.time l_violation (fun () -> Model.violation w') with
              | Some _ -> true
              | None ->
                  Layers.time l_mono (fun () -> Model.mono_regression ~before ~after) <> None
            in
            if bad then violation := true
            else begin
              let fp = Layers.time l_fingerprint (fun () -> Model.fingerprint w') in
              if not (Hashtbl.mem visited fp) then begin
                Hashtbl.replace visited fp ();
                incr states;
                if Layers.time l_goal (fun () -> Model.goal_reached w') then begin
                  if !goal_schedule = None then
                    goal_schedule := Some (prefix @ List.rev (c :: rev_suffix))
                end
                else if !states >= max_states then complete := false
                else Queue.push (c :: rev_suffix, depth + 1) frontier
              end
            end
          end)
        cs
  done;
  if !violation then complete := false;
  {
    Checker.r_scenario = sc.Model.sc_name;
    r_states = !states;
    r_transitions = !transitions;
    r_complete = !complete;
    r_goal_reached = !goal_schedule <> None;
    r_goal_schedule = !goal_schedule;
    r_prefix_len = List.length prefix;
    r_violation =
      (if !violation then
         Some { Checker.v_schedule = []; v_reason = "violation"; v_trace = [] }
       else None);
  }

let run ~seed ~seconds ~trace : Outcome.t =
  let names = scopes ~seed in
  let nscopes = List.length names in
  let info =
    [
      (* An exhaustive search, not a client loop. *)
      ("loop", Report.json_string "none");
      ("scopes", "[" ^ String.concat ", " (List.map Report.json_string names) ^ "]");
    ]
  in
  let check_pass () =
    List.map (fun name -> time_s (fun () -> Checker.check (scenario name))) names
  in
  if not trace then begin
    let setup = Report.median (List.init setup_reps (fun _ -> snd (time_s (fun () -> setup_once names)))) in
    let t_start = Layers.now_ns () in
    let first = check_pass () in
    let heap = Report.peak_heap_mb () in
    let rec more passes =
      if Layers.seconds (Layers.now_ns () - t_start) >= float seconds then List.rev passes
      else more (check_pass () :: passes)
    in
    let passes = more [ first ] in
    let results = List.concat passes in
    let ok =
      gate "every scope complete, goal reached, no violation"
        (List.for_all (fun (r, _) -> verdict_ok r) results)
      && gate "passes reproduce each other"
           (List.for_all
              (fun pass ->
                List.for_all2
                  (fun (a, _) (b, _) -> String.equal (verdict_string a) (verdict_string b))
                  pass first)
              passes)
    in
    let scope_us =
      Array.of_list (List.map (fun (_, dt) -> int_of_float (dt *. 1e6)) results)
    in
    Array.sort Int.compare scope_us;
    let transitions = List.fold_left (fun acc (r, _) -> acc + r.Checker.r_transitions) 0 results in
    let check_s = List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 results in
    let pass_s = List.map (fun pass -> List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 pass) passes in
    {
      Outcome.correct = ok;
      attempted = List.length results;
      failed = List.length (List.filter (fun (r, _) -> not (verdict_ok r)) results);
      values =
        [
          ("setup_s", setup);
          ("run_s", Report.median pass_s);
          ("ops_per_s", float transitions /. check_s);
          ("p50_ms", float (Report.percentile scope_us 0.50) /. 1000.0);
          ("p99_ms", float (Report.percentile scope_us 0.99) /. 1000.0);
          ("peak_heap_mb", heap);
        ];
      info =
        info
        @ [
            ("passes", string_of_int (List.length passes));
            ( "verdicts",
              "[" ^ String.concat ", " (List.map (fun (r, _) -> Report.json_string (verdict_string r)) first) ^ "]" );
          ];
    }
  end
  else begin
    let reference = check_pass () in
    let ref_wall_s = List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 reference in
    let replicas, t =
      Report.traced (fun () -> List.map (fun name -> traced_check (scenario name)) names)
    in
    let wall_ns = t.Report.wall_ns in
    let same =
      List.for_all2
        (fun (a, _) b ->
          let va = verdict_string a and vb = verdict_string b in
          gate (Printf.sprintf "traced search reproduces Checker.check (%s vs %s)" va vb)
            (String.equal va vb))
        reference replicas
    in
    let ok = List.for_all (fun (r, _) -> verdict_ok r) reference in
    let states = List.fold_left (fun acc r -> acc + r.Checker.r_states) 0 replicas in
    let transitions = List.fold_left (fun acc r -> acc + r.Checker.r_transitions) 0 replicas in
    let wall_s = Layers.seconds wall_ns in
    let share l = float l.Layers.total_ns /. float wall_ns in
    let per_call_us l = Layers.per_call_ns l /. 1000.0 in
    {
      Outcome.correct = gate "every scope complete, goal reached, no violation" ok && same && t.Report.sums;
      attempted = nscopes;
      failed = List.length (List.filter (fun (r, _) -> not (verdict_ok r)) reference);
      values =
        [
          ("model.build_ms", Layers.per_call_ns l_build /. 1e6);
          ("model.apply_us", per_call_us l_apply);
          ("model.fingerprint_us", per_call_us l_fingerprint);
          ("model.violation_us", per_call_us l_violation);
          ("model.choices_us", per_call_us l_choices);
          ("model.build_share", share l_build);
          ("model.fingerprint_share", share l_fingerprint);
          ("checker.builds_per_transition", float l_build.Layers.calls /. float transitions);
          ("checker.states", float states);
          ("checker.transitions", float transitions);
          ("checker.transitions_per_s", float transitions /. wall_s);
          ("checker.prefix_s", Layers.seconds l_prefix.Layers.total_ns);
          ("gc.minor_words_per_op", t.Report.minor_words /. float transitions);
          ("gc.major_collections", float t.Report.major_collections);
          ("trace.wall_s", wall_s);
          ("trace.unattributed_s", Layers.seconds (Layers.unattributed_ns ~wall_ns));
          ("trace.overhead_ratio", wall_s /. ref_wall_s);
        ];
      info = info @ [ Report.self_shares ~wall_ns ];
    }
  end
