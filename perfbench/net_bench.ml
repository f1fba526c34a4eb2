(* The [net-loopback] workload: three [server.exe] replicas running
   Raft* on 127.0.0.1, driven by a single-threaded closed-loop client in
   this process.  It is the only workload that runs [Wire] and
   [Framing] on real bytes and the network shell's [Transport].

   The client opens at most nproc connections (one per replica, up to
   three) and runs one closed-loop client on each, so at most nproc
   requests are outstanding.  Latency is wall clock, from sending a
   request to handling its reply. *)

module Types = Raftpax_consensus.Types
module Workload = Raftpax_kvstore.Workload
module Wire = Raftpax_netcore.Wire
module Framing = Raftpax_netcore.Framing
module Driver = Raftpax_netshell.Driver
module Transport = Raftpax_netshell.Transport

let replicas = 3
let protocol_name = "raft-star"

let spec =
  {
    Workload.read_fraction = 0.5;
    conflict_rate = 0.05;
    value_size = 8;
    records = 1_000;
    clients_per_region = 1;
    key_dist = Workload.Uniform;
  }

let connections () = max 1 (min replicas (Domain.recommended_domain_count ()))
let setup_reps = 3
let batch_ops = 1_000
let warmup_ops = 200
let retry_after_ns = 5_000_000_000
let drain_timeout_ns = 10_000_000_000

let gate = Report.gate

(* The replicas' engine seed is part of the system under test, not of
   the workload: it is fixed, so runs with different workload seeds
   differ only in the operations the client sends. *)
let server_seed = 1

(* Set-up: spawn the replicas, wait for READY, connect the clients. *)
let setup () =
  let t0 = Layers.now_ns () in
  let cl = Driver.spawn_cluster ~protocol_name ~n:replicas ~seed:server_seed in
  let conns =
    try Array.init (connections ()) (fun i -> Driver.connect cl.Driver.endpoints.(i))
    with e ->
      Driver.kill_cluster cl;
      raise e
  in
  (cl, conns, Layers.seconds (Layers.now_ns () - t0))

let close_all (cl, conns) =
  Array.iter Transport.close conns;
  Driver.kill_cluster cl

type client = {
  node : int;
  conn : Transport.conn;
  mutable req : int;
  mutable op : Types.op;
  mutable sent_ns : int;
  mutable busy : bool;
  mutable ready_ns : int;  (** when the client could have sent next *)
}

(* Measurements of one phase of the closed loop. *)
type phase = {
  mutable completed : int;
  mutable retries : int;
  mutable lost : bool;
  mutable reads : int list;  (** latencies, ns *)
  mutable writes : int list;
  mutable lags : int list;  (** ready-to-send delay, ns *)
  mutable batches : float list;  (** seconds per [batch_ops] completions *)
  mutable batch_p99s : int list;  (** each batch's p99 latency, ns *)
  mutable batch_lats : int list;  (** latencies in the open batch, ns *)
  mutable puts : int;
  mutable elapsed_ns : int;
}

let new_phase () =
  {
    completed = 0;
    retries = 0;
    lost = false;
    reads = [];
    writes = [];
    lags = [];
    batches = [];
    batch_p99s = [];
    batch_lats = [];
    puts = 0;
    elapsed_ns = 0;
  }

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Int.compare a;
  a

let l_send = Layers.make "transport.send"
let l_recv = Layers.make "transport.recv"
let l_select = Layers.make "transport.select"
let l_next_op = Layers.make "workload.next_op"
let l_encode = Layers.make "wire.encode"
let l_framing = Layers.make "framing"
let l_decode = Layers.make "wire.decode"

type codec_tally = { mutable msgs : int; mutable bytes : int; mutable mismatches : int }

let codec = { msgs = 0; bytes = 0; mismatches = 0 }

(* Traced runs also push each real request frame through the codec on
   its own — encode, frame, reassemble, decode — so the codec layers are
   timed on real traffic and the round trip is checked. *)
let codec_round_trip reasm frame =
  let payload = Layers.time l_encode (fun () -> Wire.encode_frame frame) in
  let framed = Layers.time l_framing (fun () -> Framing.encode payload) in
  codec.msgs <- codec.msgs + 1;
  codec.bytes <- codec.bytes + String.length framed;
  match Layers.time l_framing (fun () -> Framing.feed reasm framed) with
  | Ok [ p ] -> (
      match Layers.time l_decode (fun () -> Wire.decode_frame p) with
      | Ok f when f = frame -> ()
      | _ -> codec.mismatches <- codec.mismatches + 1)
  | _ -> codec.mismatches <- codec.mismatches + 1

(* Run the closed loop for [duration_ns], then let outstanding requests
   finish.  [traced] wraps the calls into each layer in timers. *)
let closed_loop ~clients ~wl ~next_req ~duration_ns ~traced ph =
  let time l f = if traced then Layers.time l f else f () in
  let reasm = Framing.reassembler () in
  let t0 = Layers.now_ns () in
  let batch_start = ref t0 in
  let stop_ns = t0 + duration_ns in
  let send c =
    let req_id = !next_req in
    incr next_req;
    c.req <- req_id;
    c.busy <- true;
    let frame = Wire.Client_req { req_id; op = c.op } in
    if traced then codec_round_trip reasm frame;
    c.sent_ns <- Layers.now_ns ();
    time l_send (fun () -> Transport.send c.conn frame)
  in
  let issue now =
    Array.iter
      (fun c ->
        if (not c.busy) && now < stop_ns then begin
          c.op <- time l_next_op (fun () -> Workload.next_op wl ~region:c.node);
          ph.lags <- (Layers.now_ns () - c.ready_ns) :: ph.lags;
          send c
        end)
      clients
  in
  let complete c now =
    c.busy <- false;
    c.ready_ns <- now;
    let lat = now - c.sent_ns in
    ph.completed <- ph.completed + 1;
    ph.batch_lats <- lat :: ph.batch_lats;
    (match c.op with
    | Types.Get _ -> ph.reads <- lat :: ph.reads
    | Types.Put _ ->
        ph.writes <- lat :: ph.writes;
        ph.puts <- ph.puts + 1);
    if ph.completed mod batch_ops = 0 then begin
      ph.batches <- Layers.seconds (now - !batch_start) :: ph.batches;
      ph.batch_p99s <- Report.percentile (sorted ph.batch_lats) 0.99 :: ph.batch_p99s;
      ph.batch_lats <- [];
      batch_start := now
    end
  in
  Array.iter (fun c -> c.ready_ns <- t0) clients;
  let fds = Array.to_list (Array.map (fun c -> Transport.fd c.conn) clients) in
  let deadline = stop_ns + drain_timeout_ns in
  let continue = ref true in
  while !continue do
    let now = Layers.now_ns () in
    issue now;
    if (now >= stop_ns && Array.for_all (fun c -> not c.busy) clients) || now >= deadline then
      continue := false
    else begin
      let writes =
        List.filter_map
          (fun c -> if Transport.pending_out c.conn then Some (Transport.fd c.conn) else None)
          (Array.to_list clients)
      in
      let rd, wr, _ =
        time l_select (fun () ->
            try Unix.select fds writes [] 0.05 with Unix.Unix_error (EINTR, _, _) -> ([], [], []))
      in
      Array.iter
        (fun c ->
          let fd = Transport.fd c.conn in
          if List.memq fd wr then time l_send (fun () -> Transport.flush c.conn);
          if List.memq fd rd then begin
            let frames = time l_recv (fun () -> Transport.recv c.conn) in
            let now = Layers.now_ns () in
            List.iter
              (function
                | Wire.Client_reply { req_id; value = _ } when c.busy && req_id = c.req ->
                    complete c now
                | _ -> ())
              frames
          end)
        clients;
      let now = Layers.now_ns () in
      Array.iter
        (fun c ->
          if c.busy && now - c.sent_ns > retry_after_ns then begin
            ph.retries <- ph.retries + 1;
            send c
          end)
        clients;
      if Array.exists (fun c -> not (Transport.alive c.conn)) clients then begin
        ph.lost <- true;
        continue := false
      end
    end
  done;
  ph.elapsed_ns <- Layers.now_ns () - t0

let ms_of_ns ns = float ns /. 1e6
let pct xs p = ms_of_ns (Report.percentile (sorted xs) p)

let run ~seed ~seconds ~trace : Outcome.t =
  let nconn = connections () in
  (* All set-ups but the last are torn down straight away; the last
     cluster serves the run. *)
  let setups =
    List.init setup_reps (fun i ->
        let ((cl, conns, _) as s) = setup () in
        if i < setup_reps - 1 then close_all (cl, conns);
        s)
  in
  let setup_s = Report.median (List.map (fun (_, _, dt) -> dt) setups) in
  let cl, conns, _ = List.nth setups (setup_reps - 1) in
  Fun.protect
    ~finally:(fun () -> close_all (cl, conns))
    (fun () ->
      let wl = Workload.create ~seed:(Int64.of_int seed) ~regions:replicas spec in
      let clients =
        Array.mapi
          (fun node conn ->
            {
              node;
              conn;
              req = -1;
              op = Types.Get { key = 0 };
              sent_ns = 0;
              busy = false;
              ready_ns = 0;
            })
          conns
      in
      let next_req = ref 0 in
      let loop ~duration_s ~traced ph =
        closed_loop ~clients ~wl ~next_req
          ~duration_ns:(int_of_float (duration_s *. 1e9))
          ~traced ph
      in
      (* Warm-up: the replicas' peer links come up on first use. *)
      let warm = new_phase () in
      while warm.completed < warmup_ops && not warm.lost do
        loop ~duration_s:0.2 ~traced:false warm
      done;
      let untraced = new_phase () in
      let traced_ph = new_phase () in
      let measured =
        if not trace then begin
          loop ~duration_s:(float seconds) ~traced:false untraced;
          untraced
        end
        else begin
          loop ~duration_s:(float seconds /. 2.0) ~traced:false untraced;
          Layers.reset ();
          loop ~duration_s:(float seconds /. 2.0) ~traced:true traced_ph;
          traced_ph
        end
      in
      let phases = [ warm; untraced; traced_ph ] in
      let puts = List.fold_left (fun acc p -> acc + p.puts) 0 phases in
      let completed = List.fold_left (fun acc p -> acc + p.completed) 0 phases in
      let retries = List.fold_left (fun acc p -> acc + p.retries) 0 phases in
      let lost = List.exists (fun p -> p.lost) phases in
      let agreed =
        match Driver.await_agreement cl ~min_ops:puts ~timeout_s:30.0 with
        | None -> false
        | Some snaps ->
            let _, c0, s0 = snaps.(0) in
            c0 >= puts && Array.for_all (fun (_, c, s) -> c = c0 && String.equal s s0) snaps
      in
      let ok =
        gate "no connection lost" (not lost)
        && gate "no request retried" (retries = 0)
        && gate "all replicas' snapshots agree and cover every write" agreed
        && gate "codec round trip reproduces every frame" (codec.mismatches = 0)
        && gate "layer self times + unattributed = traced wall time"
             ((not trace)
             || Layers.self_sum_ns () + Layers.unattributed_ns ~wall_ns:traced_ph.elapsed_ns
                = traced_ph.elapsed_ns)
      in
      let ops = measured.completed in
      let all = measured.reads @ measured.writes in
      let wall_s = Layers.seconds measured.elapsed_ns in
      let info =
        [
          ("loop", Report.json_string "closed");
          ("connections", string_of_int nconn);
          ("outstanding_max", string_of_int nconn);
          ("replicas", string_of_int replicas);
          ("ops", string_of_int ops);
          ("client_lag_p99_ms", Printf.sprintf "%.6f" (pct measured.lags 0.99));
        ]
        @ if trace then [ Report.self_shares ~wall_ns:traced_ph.elapsed_ns ] else []
      in
      let values =
        if not trace then
          [
            ("setup_s", setup_s);
            ("run_s", Report.median measured.batches);
            ("ops_per_s", float ops /. wall_s);
            ("p50_ms", pct all 0.50);
            (* The median over batches of each batch's p99: one stall of
               the shared machine moves one batch, not the run. *)
            ("p99_ms", Report.median (List.map (fun ns -> ms_of_ns ns) measured.batch_p99s));
            ("peak_heap_mb", Report.peak_heap_mb ());
          ]
        else begin
          let untraced_per_op = float untraced.elapsed_ns /. float (max 1 untraced.completed) in
          let traced_per_op = float traced_ph.elapsed_ns /. float (max 1 traced_ph.completed) in
          let wall_ns = traced_ph.elapsed_ns in
          [
            ("transport.send_ns", Layers.per_call_ns l_send);
            ("transport.recv_ns", Layers.per_call_ns l_recv);
            ("transport.select_wait_frac", float l_select.Layers.total_ns /. float wall_ns);
            ("workload.next_op_ns", Layers.per_call_ns l_next_op);
            ("wire.encode_ns", Layers.per_call_ns l_encode);
            ("wire.decode_ns", Layers.per_call_ns l_decode);
            ("wire.bytes_per_msg", Report.ratio (float codec.bytes) (float codec.msgs));
            ("framing.frame_ns", Report.ratio (float l_framing.Layers.total_ns) (float codec.msgs));
            ("client.read_p50_ms", pct measured.reads 0.50);
            ("client.read_p99_ms", pct measured.reads 0.99);
            ("client.write_p50_ms", pct measured.writes 0.50);
            ("client.write_p99_ms", pct measured.writes 0.99);
            ("client.failed_ratio", float retries /. float (max 1 (completed + retries)));
            ("client.lag_p99_ms", pct measured.lags 0.99);
            ("trace.wall_s", Layers.seconds wall_ns);
            ("trace.unattributed_s", Layers.seconds (Layers.unattributed_ns ~wall_ns));
            ("trace.overhead_ratio", traced_per_op /. untraced_per_op);
          ]
        end
      in
      {
        Outcome.correct = ok;
        attempted = completed + retries;
        failed = retries;
        values;
        info;
      })
