(* Iterates a hand-picked list instead of chaos_protocols — scenario-parity
   must fire on the file. *)
let () = List.iter (fun p -> ignore (Harness.protocol_name p)) [ Harness.Raft ]
