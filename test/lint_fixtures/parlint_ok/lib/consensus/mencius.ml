(* The msg type carries a handler-parity allow: this miniature has no
   MCommitMulti (commit rides MAppendMulti here), and the
   make_probes binding carries a probe-parity allow for the missing
   commit counter — both are the suppressed-fixture half of those
   rules. *)
type msg =
  | MAppendMulti of { from : int }
  | MAckMulti of { from : int }
[@@lint.allow "handler-parity" "commit piggybacks on MAppendMulti"]

let handle m =
  match m with
  | MAppendMulti _ -> 4
  | MAckMulti _ -> 5

let make_probes c =
  ignore (c "revocations_started");
  ignore (c "revocations_value");
  ignore (c "appends_sent");
  ignore (c "acks_sent");
  ignore (c "skips_announced");
  ignore (c "retransmits");
  ignore (c "batch_flush_cmds")
[@@lint.allow "probe-parity" "no commit counter in the miniature runtime"]
