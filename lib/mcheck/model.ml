module Engine = Raftpax_sim.Engine
module Net = Raftpax_sim.Net
module Topology = Raftpax_sim.Topology
module C = Raftpax_consensus
module Types = C.Types
module Harness = Raftpax_kvstore.Harness
module Lin_check = Raftpax_kvstore.Lin_check

(* ---- choices ---- *)

type choice =
  | Deliver of int * int  (** pop and run the (src, dst) link's FIFO head *)
  | Fire of int * string * int
      (** fire the [k]-th live pending timer named (node, label) *)
  | Crash of int
  | Restart of int

let render_choice = function
  | Deliver (s, d) -> Printf.sprintf "d:%d>%d" s d
  | Fire (n, l, k) -> Printf.sprintf "t:%d:%s:%d" n l k
  | Crash n -> Printf.sprintf "c:%d" n
  | Restart n -> Printf.sprintf "r:%d" n

let render_schedule cs = String.concat " " (List.map render_choice cs)

let parse_choice s =
  match String.split_on_char ':' s with
  | [ "d"; link ] -> (
      match String.split_on_char '>' link with
      | [ a; b ] -> Some (Deliver (int_of_string a, int_of_string b))
      | _ -> None)
  | [ "t"; n; l; k ] -> Some (Fire (int_of_string n, l, int_of_string k))
  | [ "c"; n ] -> Some (Crash (int_of_string n))
  | [ "r"; n ] -> Some (Restart (int_of_string n))
  | _ -> None

let parse_schedule s =
  s |> String.split_on_char ' '
  |> List.filter (fun tok -> tok <> "")
  |> List.map (fun tok ->
         match parse_choice tok with
         | Some c -> c
         | None -> invalid_arg (Printf.sprintf "bad schedule token %S" tok))

(* ---- the world: one concrete execution under checker control ---- *)

type msg = { info : (int -> int) -> string; deliver : unit -> unit }
(** [info] renders the payload under a node-id renaming ([Fun.id] for
    the plain text); keeping the closure lets {!fingerprint} re-render
    captured messages under a symmetry permutation. *)

type t = {
  engine : Engine.t;
  net : Net.t;
  cluster : Harness.wired;
  n : int;
  queues : msg Queue.t array array;  (* [src].(dst), FIFO per link *)
  ops : Types.op array;
  targets : int array;
  mutable submitted : int;
  mutable acked : int;
  mutable oracle_failure : string option;
  last_acked_write : (int, int) Hashtbl.t;  (* key -> write_id *)
  mutable events : Lin_check.event list;  (* newest first *)
  fire_allowed : node:int -> label:string -> bool;
  mutable timers_fired : int;
  mutable crashes : int;
  perms : int array array;
      (* node-id permutations the state space is quotiented by: each maps
         old id -> canonical id, identity first.  Singleton = no
         reduction. *)
}

type scenario = {
  sc_name : string;
  sc_protocol : Harness.protocol;
  sc_ops : Types.op list;
  sc_targets : int list;
  sc_nodes : int;
  sc_timer_budget : int;
  sc_crash_budget : int;
  sc_config : C.Replica.override;
  sc_fire_filter : (node:int -> label:string -> bool) option;
  sc_policy : (t -> choice option) option;
  sc_symmetry : int list;
}

let ncmds w = Array.length w.ops

(* ---- symmetry ---- *)

(* All permutations of a list, deterministically ordered. *)
let rec permutations = function
  | [] -> [ [] ]
  | xs ->
      List.concat_map
        (fun x ->
          List.map
            (fun p -> x :: p)
            (permutations (List.filter (fun y -> y <> x) xs)))
        xs

(* The permutation group generated by [sc_symmetry]: every bijection of
   the listed node ids onto themselves, extended with the identity on
   all other ids.  [permutations] over the sorted id list emits the
   identity image first, so a symmetry-free scenario costs one pass
   exactly as before. *)
let perm_group ~n sym =
  let sym = List.sort_uniq Int.compare sym in
  List.iter
    (fun i ->
      if i < 0 || i >= n then
        invalid_arg (Printf.sprintf "sc_symmetry node %d out of range" i))
    sym;
  permutations sym
  |> List.map (fun image ->
         let a = Array.init n Fun.id in
         List.iteri (fun k target -> a.(List.nth sym k) <- target) image;
         a)
  |> Array.of_list

(* Submissions are driven closed-loop: command [i + 1] goes in only when
   command [i]'s reply arrives, so the goal "all commands acknowledged"
   is meaningful and the reachable space stays small.  The reply is also
   the read oracle's check point: a Get must observe at least the last
   write this serial client saw acknowledged for its key — the
   monotonic-read face of linearizability that the PQL lease path could
   break without the commit-wait. *)
let rec submit_next w =
  if w.submitted < ncmds w && w.oracle_failure = None then begin
    let i = w.submitted in
    w.submitted <- i + 1;
    let op = w.ops.(i) in
    let expected =
      match op with
      | Types.Get { key } -> Hashtbl.find_opt w.last_acked_write key
      | Types.Put _ -> None
    in
    let started_us = Engine.now w.engine in
    let inst = w.cluster.Harness.w_instance in
    ignore @@ inst.submit ~node:w.targets.(i) op (fun reply ->
        (match op with
        | Types.Put { key; write_id; _ } ->
            w.events <-
              Lin_check.Write_complete
                { write_id; key; at_us = Engine.now w.engine }
              :: w.events
        | Types.Get { key } ->
            w.events <-
              Lin_check.Read { key; started_us; returned = reply.Types.value }
              :: w.events);
        (match (op, expected) with
        | Types.Put { key; write_id; _ }, _ ->
            Hashtbl.replace w.last_acked_write key write_id
        | Types.Get { key }, Some e -> (
            match reply.Types.value with
            | Some got when got >= e -> ()
            | got ->
                w.oracle_failure <-
                  Some
                    (Printf.sprintf
                       "stale read: Get k=%d returned %s, expected >= w%d" key
                       (match got with
                       | Some g -> Printf.sprintf "w%d" g
                       | None -> "nothing")
                       e))
        | Types.Get _, None -> ());
        w.acked <- w.acked + 1;
        submit_next w)
  end

let build sc =
  let engine = Engine.create ~seed:1L () in
  Engine.set_manual engine true;
  let nodes =
    List.init sc.sc_nodes (fun i ->
        { Net.id = i; site = Topology.site_of_index i })
  in
  let net = Net.create engine ~nodes in
  let n = List.length nodes in
  let queues = Array.init n (fun _ -> Array.init n (fun _ -> Queue.create ())) in
  Net.set_capture net
    (Some
       (fun ~src ~dst ~size:_ ~info deliver ->
         Queue.push { info; deliver } queues.(src).(dst)));
  let cluster =
    Harness.make_wired ~override:sc.sc_config sc.sc_protocol net ~leader:0
  in
  Engine.manual_drain engine;
  let w =
    {
      engine;
      net;
      cluster;
      n;
      queues;
      ops = Array.of_list sc.sc_ops;
      targets = Array.of_list sc.sc_targets;
      submitted = 0;
      acked = 0;
      oracle_failure = None;
      last_acked_write = Hashtbl.create 8;
      events = [];
      fire_allowed =
        (match sc.sc_fire_filter with
        | Some f -> f
        | None -> fun ~node:_ ~label:_ -> true);
      timers_fired = 0;
      crashes = 0;
      perms = perm_group ~n sc.sc_symmetry;
    }
  in
  submit_next w;
  Engine.manual_drain engine;
  w

(* ---- enabled choices ---- *)

(* Pending timers grouped by (node, label): the k in [Fire (node, label,
   k)] indexes into the group in scheduling order, so the name is stable
   under replay even though engine sequence numbers are not part of any
   state the schedule mentions. *)
let pending_groups w =
  let groups = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun ev ->
      let key = (Engine.event_node ev, Engine.event_label ev) in
      match Hashtbl.find_opt groups key with
      | Some l -> Hashtbl.replace groups key (l @ [ ev ])
      | None ->
          Hashtbl.add groups key [ ev ];
          order := key :: !order)
    (Engine.manual_pending w.engine);
  List.rev_map (fun key -> (key, Hashtbl.find groups key)) !order

let choices ?(timer_budget = 0) ?(crash_budget = 0) w =
  let deliveries = ref [] in
  for src = w.n - 1 downto 0 do
    for dst = w.n - 1 downto 0 do
      if not (Queue.is_empty w.queues.(src).(dst)) then
        deliveries := Deliver (src, dst) :: !deliveries
    done
  done;
  let fires =
    if w.timers_fired >= timer_budget then []
    else
      List.concat_map
        (fun ((node, label), evs) ->
          if node >= 0 && Net.node_down w.net node then []
          else if not (w.fire_allowed ~node ~label) then []
          else List.mapi (fun k _ -> Fire (node, label, k)) evs)
        (pending_groups w)
  in
  let crashes =
    if w.crashes >= crash_budget then []
    else
      List.filter_map
        (fun i -> if Net.node_down w.net i then None else Some (Crash i))
        (List.init w.n Fun.id)
  in
  let restarts =
    List.filter_map
      (fun i -> if Net.node_down w.net i then Some (Restart i) else None)
      (List.init w.n Fun.id)
  in
  !deliveries @ fires @ crashes @ restarts

exception Stuck of string

let apply w choice =
  (match choice with
  | Deliver (src, dst) ->
      let q = w.queues.(src).(dst) in
      if Queue.is_empty q then
        raise (Stuck (Printf.sprintf "empty link %d>%d" src dst));
      let m = Queue.pop q in
      (* A down destination loses the message: delivering into a crash is
         the drop transition, kept explicit so restart-before-delivery
         interleavings are still explored. *)
      if not (Net.node_down w.net dst) then m.deliver ()
  | Fire (node, label, k) -> (
      let group =
        List.assoc_opt (node, label) (pending_groups w) |> Option.value ~default:[]
      in
      match List.nth_opt group k with
      | None ->
          raise
            (Stuck (Printf.sprintf "no pending timer %d:%s:%d" node label k))
      | Some ev ->
          w.timers_fired <- w.timers_fired + 1;
          ignore (Engine.manual_fire w.engine ev))
  | Crash node ->
      if Net.node_down w.net node then
        raise (Stuck (Printf.sprintf "crash of down node %d" node));
      w.crashes <- w.crashes + 1;
      w.cluster.Harness.crash ~node
  | Restart node ->
      if not (Net.node_down w.net node) then
        raise (Stuck (Printf.sprintf "restart of live node %d" node));
      w.cluster.Harness.restart ~node);
  Engine.manual_drain w.engine

(* ---- state identity ---- *)

(* Render the global state as seen through one node-id permutation:
   canonical position [perm.(i)] carries node [i]'s state, link
   (perm.(s), perm.(d)) carries queue (s, d) with its payloads
   re-rendered under the renaming, timers and down flags move with
   their nodes.  Ids outside the permuted range (the client's -1 timer
   owner) pass through unchanged. *)
let fingerprint_under w perm =
  let rename i = if i >= 0 && i < w.n then perm.(i) else i in
  let buf = Buffer.create 1024 in
  let states = Array.make w.n "" in
  for node = 0 to w.n - 1 do
    states.(rename node) <- w.cluster.Harness.state ~rename ~node
  done;
  Array.iter
    (fun s ->
      Buffer.add_string buf s;
      Buffer.add_char buf '\n')
    states;
  let links = Array.make_matrix w.n w.n "" in
  for src = 0 to w.n - 1 do
    for dst = 0 to w.n - 1 do
      if not (Queue.is_empty w.queues.(src).(dst)) then begin
        let b = Buffer.create 64 in
        Queue.iter
          (fun m ->
            Buffer.add_string b (m.info rename);
            Buffer.add_char b ';')
          w.queues.(src).(dst);
        links.(rename src).(rename dst) <- Buffer.contents b
      end
    done
  done;
  for src = 0 to w.n - 1 do
    for dst = 0 to w.n - 1 do
      if links.(src).(dst) <> "" then begin
        Buffer.add_string buf (Printf.sprintf "q%d>%d:" src dst);
        Buffer.add_string buf links.(src).(dst);
        Buffer.add_char buf '\n'
      end
    done
  done;
  let timers =
    List.map
      (fun ev ->
        Printf.sprintf "%d:%s@%d"
          (rename (Engine.event_node ev))
          (Engine.event_label ev) (Engine.event_time ev))
      (Engine.manual_pending w.engine)
    |> List.sort String.compare
  in
  Buffer.add_string buf (String.concat "," timers);
  let down = Array.make w.n 'U' in
  for node = 0 to w.n - 1 do
    if Net.node_down w.net node then down.(rename node) <- 'D'
  done;
  Array.iter (Buffer.add_char buf) down;
  Buffer.add_string buf
    (Printf.sprintf "|clk%d|s%d|a%d|t%d|c%d" (Engine.now w.engine) w.submitted
       w.acked w.timers_fired w.crashes);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The canonical fingerprint is the minimum digest over the scenario's
   permutation group, so all states in one symmetry orbit land on the
   same visited-set key.  Soundness rests on the scenario itself being
   invariant under the group: submission targets, fire filters and
   policies must not distinguish the permuted nodes (see
   {!Scenario.steady_sym}). *)
let fingerprint w =
  let best = ref (fingerprint_under w w.perms.(0)) in
  for k = 1 to Array.length w.perms - 1 do
    let d = fingerprint_under w w.perms.(k) in
    if String.compare d !best < 0 then best := d
  done;
  !best

let goal_reached w = w.acked = ncmds w

(* Per-key linearizability audit of the completed operations (see
   {!Raftpax_kvstore.Lin_check}): stronger than the inline oracle in
   that the id a read returned must also be a committed write.  The
   committed order is the longest committed prefix any replica has
   applied — every acknowledged operation has been applied by the
   replica that acknowledged it, and prefix agreement (checked
   separately by the invariant library) makes the longest list a
   superset of the others. *)
let lin_violation w =
  match w.events with
  | [] -> None
  | events -> (
      let committed = ref [] in
      for node = 0 to w.n - 1 do
        let ops = w.cluster.Harness.w_instance.committed_ops ~node in
        if List.length ops > List.length !committed then committed := ops
      done;
      let r =
        Lin_check.check ~committed_order:!committed (List.rev events)
      in
      match r.Lin_check.violations with
      | [] -> None
      | v :: _ -> Some (Fmt.str "lin: %a" Lin_check.pp_violation v))

(* First safety problem visible in the current state, if any: the
   client-side read oracle, then the runtime's own invariant library,
   then the linearizability audit. *)
let violation w =
  match w.oracle_failure with
  | Some v -> Some ("oracle: " ^ v)
  | None -> (
      match w.cluster.Harness.invariant () with
      | Some v -> Some v
      | None -> lin_violation w)

let mono_views w = Array.init w.n (fun node -> w.cluster.Harness.mono ~node)

let mono_regression ~before ~after =
  let bad = ref None in
  Array.iteri
    (fun node b ->
      let a = after.(node) in
      let common = min (Array.length a) (Array.length b) in
      for i = 0 to common - 1 do
        if !bad = None && a.(i) < b.(i) then
          bad :=
            Some
              (Printf.sprintf
                 "monotonicity: node %d component %d regressed %d -> %d" node
                 i b.(i) a.(i))
      done)
    before;
  !bad

let acked w = w.acked
let timers_fired w = w.timers_fired
let crashes w = w.crashes
let cluster w = w.cluster
let engine w = w.engine
let net w = w.net

let queue_info w ~src ~dst =
  Queue.fold (fun acc m -> m.info Fun.id :: acc) [] w.queues.(src).(dst)
  |> List.rev

(* Human-readable rendering of what a choice did, for counterexample
   traces; must be called on the world state *before* the choice runs. *)
let describe w choice =
  match choice with
  | Deliver (src, dst) ->
      let head =
        match Queue.peek_opt w.queues.(src).(dst) with
        | Some m -> m.info Fun.id
        | None -> "?"
      in
      let lost = if Net.node_down w.net dst then " (lost: dst down)" else "" in
      Printf.sprintf "deliver %d>%d %s%s" src dst head lost
  | Fire (node, label, _) -> Printf.sprintf "fire timer %s at node %d" label node
  | Crash node -> Printf.sprintf "crash node %d" node
  | Restart node -> Printf.sprintf "restart node %d" node
