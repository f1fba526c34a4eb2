let () =
  List.iter (fun p -> ignore (Harness.protocol_name p)) Harness.chaos_protocols
