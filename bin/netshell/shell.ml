(* The server process: one unchanged protocol runtime hosted over real
   TCP sockets.

   The process constructs the full n-replica runtime (exactly as the
   simulator does) but only replica [me] is live here.  Every
   cross-replica send is intercepted by the wire hook; messages from the
   local replica go out over per-peer links, messages from the dormant
   replicas (whose real instances run in the other processes) are
   dropped at the wire.  The dormant replicas receive nothing, so they
   stay inert — their timers fire into the void.  Inbound [Peer_msg]
   frames are injected into replica [me]'s handler.

   Sim time is mapped to wall-clock: the engine's virtual microsecond
   clock is advanced to "microseconds since process start" on every
   event-loop iteration, so the runtimes' timers (heartbeats, election
   timeouts, leases) fire in real time; the select timeout is sized from
   the engine's next deadline.

   Known limitation: MultiPaxos/Mencius failure detection reads the
   simulator's omniscient down-flags, which no process can observe for a
   remote peer, so their takeover/revocation paths do not engage over
   the network (Raft's message-driven elections work unchanged).  A real
   failure detector is the documented follow-on. *)

module Engine = Raftpax_sim.Engine
module Net = Raftpax_sim.Net
module Topology = Raftpax_sim.Topology
module Harness = Raftpax_kvstore.Harness
module Wire = Raftpax_netcore.Wire
module Snapshot = Raftpax_netcore.Snapshot
module Types = Raftpax_consensus.Types

(* One site per replica, cycling through the topology — only used for
   the simulated self-send hop; cross-replica latency is the real
   network's. *)
let nodes_for n =
  let sites = Array.of_list Topology.sites in
  List.init n (fun i -> { Net.id = i; site = sites.(i mod Array.length sites) })

type client_session = { conn : Transport.conn }

let run ~me ~protocol ~port ~peers ~seed =
  let n = Array.length peers in
  if me < 0 || me >= n then invalid_arg "Shell.run: me out of range";
  let engine = Engine.create ~seed () in
  let net = Net.create engine ~nodes:(nodes_for n) in
  let wired = Harness.make_wired protocol net ~leader:0 in
  wired.Harness.w_set_cmd_ids ~base:me ~stride:n;
  let t0 = Unix.gettimeofday () in
  let wall_us () = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
  let links =
    Array.init n (fun j ->
        if j = me then None
        else begin
          let host, pport = peers.(j) in
          Some
            (Transport.link ~host ~port:pport
               ~hello:(Wire.Peer_hello { node = me }))
        end)
  in
  wired.Harness.w_set_wire
    (Some
       (fun ~src ~dst ~size:_ msg ->
         (* Only the live replica's traffic reaches the wire; dormant
            replicas' output vanishes here. *)
         if src = me && dst <> me && dst >= 0 && dst < n then
           match links.(dst) with
           | Some l -> Transport.link_send l (Wire.Peer_msg { src; dst; msg })
           | None -> ()));
  let listen_fd = Transport.listen_on port in
  (* Unclassified inbound connections: the first frame tells us whether
     the dialer is a peer replica or a client. *)
  let pending = ref [] in
  let peer_ins = ref [] in
  let clients = ref [] in
  let handle_client_frame (cs : client_session) = function
    | Wire.Client_req { req_id; op } ->
        ignore
          (wired.Harness.w_instance.Harness.submit ~node:me op (fun reply ->
               Transport.send cs.conn
                 (Wire.Client_reply { req_id; value = reply.Types.value })))
    | Wire.Snapshot_req ->
        let ops = wired.Harness.w_instance.Harness.committed_ops ~node:me in
        Transport.send cs.conn
          (Wire.Snapshot_reply
             {
               node = me;
               committed = List.length ops;
               snapshot = Snapshot.of_ops ops;
             })
    | Wire.Client_hello -> ()
    | Wire.Peer_hello _ | Wire.Peer_msg _ | Wire.Client_reply _
    | Wire.Snapshot_reply _ ->
        Transport.close cs.conn
  in
  let handle_peer_frame conn = function
    | Wire.Peer_msg { src = _; dst; msg } ->
        if dst = me then wired.Harness.w_deliver ~node:me msg
    | Wire.Peer_hello _ -> ()
    | _ -> Transport.close conn
  in
  let classify conn frames =
    match frames with
    | [] -> ()
    | first :: rest -> (
        match first with
        | Wire.Peer_hello _ ->
            peer_ins := conn :: !peer_ins;
            List.iter (handle_peer_frame conn) rest
        | Wire.Client_hello ->
            let cs = { conn } in
            clients := cs :: !clients;
            List.iter (handle_client_frame cs) rest
        | _ -> Transport.close conn)
  in
  print_string "READY\n";
  flush stdout;
  (* ---- event loop ---- *)
  let running = ref true in
  Sys.set_signal Sys.sigterm (Signal_handle (fun _ -> running := false));
  Sys.set_signal Sys.sigint (Signal_handle (fun _ -> running := false));
  Sys.set_signal Sys.sigpipe Signal_ignore;
  while !running do
    let now = wall_us () in
    (* Fire every due timer/self-send at its virtual deadline. *)
    Engine.run engine ~until:now;
    Array.iter
      (function Some l -> Transport.link_poll l ~now_us:now | None -> ())
      links;
    let live_conns =
      List.filter Transport.alive
        (!peer_ins @ !pending
        @ List.map (fun cs -> cs.conn) !clients
        @ List.filter_map
            (fun l -> Option.bind l Transport.link_conn)
            (Array.to_list links))
    in
    let reads = listen_fd :: List.map Transport.fd live_conns in
    let writes =
      List.filter_map
        (fun l ->
          match l with
          | None -> None
          | Some l -> (
              match Transport.link_dialing_fd l with
              | Some fd -> Some fd
              | None ->
                  Option.bind (Transport.link_conn l) (fun c ->
                      if Transport.pending_out c then Some (Transport.fd c)
                      else None)))
        (Array.to_list links)
      @ List.filter_map
          (fun c ->
            if Transport.pending_out c then Some (Transport.fd c) else None)
          live_conns
    in
    let timeout =
      match Engine.next_deadline engine with
      | Some d -> Float.max 0.0005 (Float.min 0.05 (float_of_int (d - now) /. 1e6))
      | None -> 0.05
    in
    let rd, wr, _ =
      try Unix.select reads writes [] timeout
      with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
    in
    let now = wall_us () in
    Engine.run engine ~until:now;
    (* Accept new connections. *)
    if List.memq listen_fd rd then begin
      let continue = ref true in
      while !continue do
        match Transport.accept listen_fd with
        | Some conn -> pending := conn :: !pending
        | None -> continue := false
      done
    end;
    (* Resolve in-flight dials; flush writable connections. *)
    Array.iter
      (function
        | Some l -> (
            (match Transport.link_dialing_fd l with
            | Some fd when List.memq fd wr -> Transport.link_dial_done l ~now_us:now
            | _ -> ());
            match Transport.link_conn l with
            | Some c when List.memq (Transport.fd c) wr -> Transport.flush c
            | _ -> ())
        | None -> ())
      links;
    List.iter
      (fun c -> if List.memq (Transport.fd c) wr then Transport.flush c)
      live_conns;
    (* Read: classified connections dispatch; pending ones classify. *)
    let readable c = Transport.alive c && List.memq (Transport.fd c) rd in
    List.iter
      (fun c -> if readable c then List.iter (handle_peer_frame c) (Transport.recv c))
      !peer_ins;
    List.iter
      (fun cs ->
        if readable cs.conn then
          List.iter (handle_client_frame cs) (Transport.recv cs.conn))
      !clients;
    let pend = !pending in
    pending := [];
    List.iter
      (fun c ->
        if readable c then classify c (Transport.recv c)
        else if Transport.alive c then pending := c :: !pending)
      pend;
    (* Drop dead connections. *)
    peer_ins := List.filter Transport.alive !peer_ins;
    clients := List.filter (fun cs -> Transport.alive cs.conn) !clients;
    pending := List.filter Transport.alive !pending
  done;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ())
