#!/usr/bin/env python3
"""Build and run the repository benchmark, or compare two sets of runs.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload lease-reads --seed 1 --seconds 15 --trace 0

The script builds perfbench/bench.exe and bin/server.exe from source
with dune, then runs the benchmark; its last line of output is the
result object.  Set-up and build output go to standard error.

Compare two sets of runs (each file holds the concatenated standard
output of any number of runs, on any workloads):

    python3 perfbench/run.py compare old.txt new.txt

For each workload and end-to-end metric it prints each side's median
and quartiles, the pairs won by the new side and the pairs that read
exactly the same (runs paired by seed), and a verdict under the bounds
in BENCHMARK.json.  On the simulated clock a metric repeats exactly for
a seed, so "same" below n/n means the behaviour changed.  Per-layer
deltas from traced runs are printed beside it, for information only.
Run the old and new sides alternately, so that drift in the machine's
speed reaches both.
"""

import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGETS = ["./perfbench/bench.exe", "./bin/server.exe"]


def env(**extra):
    """The environment for the build and the run: no shared dune cache,
    and temporary files inside the checkout's build directory."""
    tmp = os.path.join(ROOT, "_build", "perfbench-tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp, **extra)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.exit("perfbench: no dune-project at %s; run from a full checkout" % ROOT)
    cmd = ["dune", "build", "--root", ROOT, "--display", "quiet"] + TARGETS
    proc = subprocess.run(cmd, cwd=ROOT, env=env(), stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed (%s)" % " ".join(cmd))


def run(args):
    build()
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    server = os.path.join(ROOT, "_build", "default", "bin", "server.exe")
    # The benchmark runs in its own process group, so the replica
    # servers it spawns for net-loopback are stopped even if it dies
    # before it can stop them itself.
    proc = subprocess.Popen([exe] + args, cwd=ROOT, env=env(RAFTPAX_SERVER_EXE=server),
                            start_new_session=True)

    def stop(signum, _frame):
        kill_group(proc.pid)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait()
    finally:
        kill_group(proc.pid)


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    # Reap what we can; the group's other members are reparented to init.
    try:
        os.waitpid(pgid, os.WNOHANG)
    except ChildProcessError:
        pass


# ---- compare mode ----

def load_runs(path):
    """(description, result) pairs: each result line follows the run
    description line that the benchmark prints before it."""
    runs, desc = [], None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if obj.get("bench") == "raftpax-perfbench":
                desc = obj
            elif "metrics" in obj and desc is not None:
                runs.append((desc, obj))
                desc = None
    return runs


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(old, new, better, bound, wins, pairs):
    """improved / worse / unchanged / unresolved, following the
    benchmark's rules: a gain needs 9/10 of the pairs and a median
    shift beyond the old side's own spread; no regression means the
    new median is within the bound."""
    o1, om, o3 = quartiles(old)
    _, nm, _ = quartiles(new)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (nm - om)
    spread = o3 - o1
    if pairs and wins >= 0.9 * pairs and gain > spread:
        return "improved"
    worse_by = -gain / abs(om) if om else 0.0
    if worse_by > bound:
        return "worse"
    if om and spread / abs(om) > bound:
        all_better = all(sign * (n - o) > 0 for n in new for o in old)
        return "improved" if all_better else "unresolved"
    return "unchanged"


def compare(old_path, new_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    old, new = load_runs(old_path), load_runs(new_path)
    workloads = [w["name"] for w in spec["workloads"]]
    fmt = "{:<16} {:<14} {:>12} {:>24} {:>12} {:>24} {:>7} {:>7}  {}"
    print(fmt.format("workload", "metric", "old median", "old q1..q3",
                     "new median", "new q1..q3", "wins", "same", "verdict"))
    for w in workloads:
        o_runs = [(d, r) for d, r in old if d["workload"] == w and d["trace"] == 0]
        n_runs = [(d, r) for d, r in new if d["workload"] == w and d["trace"] == 0]
        if not o_runs or not n_runs:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            ov = [r["metrics"][name]["value"] for _, r in o_runs]
            nv = [r["metrics"][name]["value"] for _, r in n_runs]
            o_by_seed = {d["seed"]: r["metrics"][name]["value"] for d, r in o_runs}
            pairs = wins = same = 0
            for d, r in n_runs:
                if d["seed"] in o_by_seed:
                    a, b = o_by_seed[d["seed"]], r["metrics"][name]["value"]
                    pairs += 1
                    better = b > a if m["better"] == "higher" else b < a
                    wins += 1 if better else 0
                    same += 1 if a == b else 0
            oq, nq = quartiles(ov), quartiles(nv)
            print(fmt.format(
                w, name, "%.6g" % oq[1], "%.6g..%.6g" % (oq[0], oq[2]),
                "%.6g" % nq[1], "%.6g..%.6g" % (nq[0], nq[2]),
                "%d/%d" % (wins, pairs), "%d/%d" % (same, pairs),
                verdict(ov, nv, m["better"], m["bound"], wins, pairs)))
        o_tr = [r for d, r in old if d["workload"] == w and d["trace"] == 1]
        n_tr = [r for d, r in new if d["workload"] == w and d["trace"] == 1]
        if o_tr and n_tr:
            print("  per-layer (traced medians, informational):")
            for m in spec["per_layer"]:
                name = m["name"]
                a = statistics.median(r["metrics"][name]["value"] for r in o_tr)
                b = statistics.median(r["metrics"][name]["value"] for r in n_tr)
                if a == 0 and b == 0:
                    continue
                delta = "%+.1f%%" % (100.0 * (b - a) / a) if a else "new"
                print("    {:<32} {:>14.6g} {:>14.6g} {:>9} {}".format(
                    name, a, b, delta, m["unit"]))


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py compare OLD NEW")
        compare(argv[1], argv[2])
        return 0
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
