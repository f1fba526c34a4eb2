type op =
  | Get of { key : int }
  | Put of { key : int; size : int; write_id : int }

type cmd = { id : int; op : op; origin : int; submitted_us : int }

let op_size = function Get _ -> 16 | Put { size; _ } -> size + 16
let is_read = function Get _ -> true | Put _ -> false
let key_of = function Get { key } -> key | Put { key; _ } -> key

type entry = { term : int; cmd : cmd option }
type reply = { value : int option }

(* parlint's knob-threading rule holds every field here to the
   six-surface porting discipline (Harness/Shard/Nemesis configs, the
   shard JSON emitter, a bench flag).  Fields that are engine-model
   constants rather than per-run knobs — only ever overridden via
   [{ default_params with ... }] at bench ablation sites — carry the
   reason inline. *)
type params = {
  pipeline_window : int;
      [@lint.allow
        "knob-threading"
        "replication-model constant; the pipelining ablation overrides it \
         via default_params, it is not a per-run config surface"]
  cpu_leader_op_us : int;
      [@lint.allow "knob-threading" "engine CPU cost-model constant"]
  cpu_follower_op_us : int;
      [@lint.allow "knob-threading" "engine CPU cost-model constant"]
  cpu_read_op_us : int;
      [@lint.allow "knob-threading" "engine CPU cost-model constant"]
  cpu_pql_commit_extra_us : int;
      [@lint.allow "knob-threading" "engine CPU cost-model constant"]
  msg_header_bytes : int;
      [@lint.allow "knob-threading" "wire cost-model constant"]
  reply_bytes : int;
      [@lint.allow "knob-threading" "wire cost-model constant"]
  heartbeat_interval_us : int;
      [@lint.allow
        "knob-threading"
        "protocol timing-model constant; the nemesis perturbs clocks and \
         schedules rather than retuning timeouts per run"]
  election_timeout_min_us : int;
      [@lint.allow "knob-threading" "protocol timing-model constant"]
  election_timeout_max_us : int;
      [@lint.allow "knob-threading" "protocol timing-model constant"]
  lease_duration_us : int;
      [@lint.allow
        "knob-threading"
        "Raft-LL lease-model constant; only the bench lease ablation \
         overrides it via default_params"]
  lease_renew_us : int;
      [@lint.allow "knob-threading" "Raft-LL lease-model constant"]
  batch_size : int;
      (** leader-side command batching: accumulate up to this many client
          commands into one replication batch before flushing.  1 makes
          every batch a batch of one, flushed inside the submitting event,
          which behaves exactly as unbatched replication. *)
  batch_delay_us : int;
      (** time bound on the accumulator: a partial batch flushes this many
          µs after its first command.  0 means flush only on [batch_size]. *)
}

let default_params =
  {
    pipeline_window = 256;
    cpu_leader_op_us = 24;
    cpu_follower_op_us = 16;
    cpu_read_op_us = 24;
    cpu_pql_commit_extra_us = 30;
    msg_header_bytes = 64;
    reply_bytes = 64;
    heartbeat_interval_us = 100_000;
    election_timeout_min_us = 1_000_000;
    election_timeout_max_us = 2_000_000;
    lease_duration_us = 2_000_000;
    lease_renew_us = 500_000;
    batch_size = 1;
    batch_delay_us = 0;
  }

(* Canonical renderings used by the model checker to fingerprint
   messages and states.  [submitted_us] is deliberately excluded: it only
   feeds latency accounting, and folding it in would split otherwise
   identical states.  [rename] maps node ids to their canonical images
   for the checker's symmetry reduction; the default is the identity. *)

let render_op = function
  | Get { key } -> Printf.sprintf "G%d" key
  | Put { key; write_id; _ } -> Printf.sprintf "P%d=%d" key write_id

let render_cmd ?(rename = Fun.id) c =
  Printf.sprintf "c%d@%d:%s" c.id (rename c.origin) (render_op c.op)

let render_cmd_opt ?rename = function
  | None -> "noop"
  | Some c -> render_cmd ?rename c

let render_entry ?rename e =
  Printf.sprintf "{t%d %s}" e.term (render_cmd_opt ?rename e.cmd)

let entry_bytes params e =
  params.msg_header_bytes
  + match e.cmd with None -> 0 | Some c -> op_size c.op

let batch_bytes params entries =
  params.msg_header_bytes
  + List.fold_left (fun acc e -> acc + entry_bytes params e) 0 entries

let ids_bytes = function [ _ ] -> 0 | l -> 8 * List.length l
