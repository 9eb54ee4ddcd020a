"""The deltachar benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload ell-eval --seed 1 --seconds 13 --trace 0

Untraced (`--trace 0`), the run starts SETUP_SAMPLES fresh worker
processes one after another, measures the middle one for whole rounds
until at least `--seconds` of scaled operation time has passed, and prints
the end-to-end metrics of BENCHMARK.json.  Times are scaled to the
reference speed measured around them (speed.py); each report line shows
the wall-clock figure beside the scaled one.

  ops_per_s    correct operations per second of scaled operation time
  op_p50_ms    median scaled latency of one operation
  op_tail_ms   scaled latency at the workload's tail percentile, printed
               with the number of samples above it
  setup_s      median, over the SETUP_SAMPLES processes, of the scaled time
               from process start to the first timed operation (import of
               deltachar and deltachar.cli, input generation, warm-up)
  peak_rss_mb  ru_maxrss of the measured process

`failed_ops_frac` (failed / attempted) is printed in the report and its
parts are the `attempted` and `failed` fields of the result line; it is not
a metric of BENCHMARK.json because it reads 0 on a correct tree.

Traced (`--trace 1`), one untraced process runs `--seconds`/2 of whole
rounds and a second, traced process replays exactly those operations; the
second gives the per-layer metrics of BENCHMARK.json and the pair gives
`trace.overhead_frac`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit status is 0 when
every check passed, 1 when some check failed, and 2 when the benchmark
could not run (no deltachar sources, a worker that died).
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

DEFAULT_SEED = 1
HELDOUT_SEED = 7919          # not used while tuning; for confirming claims
SETUP_SAMPLES = 7
SETUP_BURST = 10           # reference kernel runs between two processes
DEADLINE_S = 175.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec():
    """BENCHMARK.json: workloads, metric names, units and bounds."""
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def nearest_rank(sorted_values, pct):
    """The pct-th percentile by nearest rank, and how many samples lie
    above it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def spread(values):
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def stamp(src, workload, seed):
    digest = hashlib.sha256()
    pkg = os.path.join(src, "deltachar")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(handle.read())
    commit = None
    tree = os.path.dirname(src)
    if os.path.isdir(os.path.join(tree, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", tree, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_worker(args, deadline, extra):
    """Start one worker; return (setup seconds, result dict or None)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--src", args.src] + extra
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(1.0, deadline - start), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.monotonic() - start
        if ready.strip() != "READY":
            raise BenchError("worker did not finish set-up")
        result = None
        for line in proc.stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        if proc.wait() != 0:
            raise BenchError("worker exited with status %d" % proc.returncode)
        return setup_s, result
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def end_to_end(args, deadline):
    # the measured process sits in the middle of the set-up samples, so that
    # their median spans the run rather than one moment of it; a burst of
    # the reference kernel between processes gives each its speed
    measured = SETUP_SAMPLES // 2
    speed.kernel()
    bursts = [speed.burst(SETUP_BURST)]
    setups, wall_setups = [], []
    for i in range(SETUP_SAMPLES):
        extra = (["--seconds", str(args.seconds)] if i == measured
                 else ["--setup-only"])
        setup_s, out = run_worker(args, deadline, extra)
        bursts.append(speed.burst(SETUP_BURST))
        wall_setups.append(setup_s)
        setups.append(setup_s * speed.factor(bursts[-2] + bursts[-1]))
        if i == measured:
            res = out
    pct = res["tail_pct"]
    ok = len(res["latencies"]) - res["timed_failed"]
    metrics, walls = {}, {}
    for out, key, setup in ((metrics, "latencies", setups),
                            (walls, "wall_latencies", wall_setups)):
        lat = sorted(res[key])
        tail, above = nearest_rank(lat, pct)
        out.update({
            "ops_per_s": ok / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": tail * 1e3,
            "setup_s": statistics.median(setup),
        })
    metrics["peak_rss_mb"] = res["rss_kb"] / 1024.0
    notes = {name: "wall %.6g" % value for name, value in walls.items()}
    notes["op_tail_ms"] += "; p%d, n=%d, %d above" % (
        pct, len(res["latencies"]), above)
    notes["ops_per_s"] += "; %d ops, %d rounds, %.3f s scaled" % (
        len(res["latencies"]), res["rounds"], sum(res["latencies"]))
    notes["setup_s"] += "; median of %d: %s" % (
        len(setups), " ".join("%.4f" % s for s in setups))
    info = {"ops": len(res["latencies"]), "rounds": res["rounds"],
            "tail_pct": pct, "tail_above": above}
    return res, metrics, notes, info


def traced(args, deadline):
    plain = run_worker(args, deadline,
                       ["--seconds", str(args.seconds / 2.0)])[1]
    n_ops = len(plain["latencies"])
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    spans_file = os.path.join(HERE, "out", "spans-%s.tsv.gz" % args.workload)
    res = run_worker(args, deadline, ["--ops", str(n_ops), "--trace", "1",
                                      "--spans", spans_file])[1]
    metrics = dict(res["layers"])
    metrics["trace.overhead_frac"] = (sum(res["latencies"])
                                      / sum(plain["latencies"]) - 1.0)
    res["attempted"] += plain["attempted"]
    res["failed"] += plain["failed"]
    res["failures"] = plain["failures"] + res["failures"]
    notes = {"trace.overhead_frac": "%d ops replayed, %d spans in %s" % (
        n_ops, res["spans"], os.path.relpath(spans_file, ROOT))}
    info = {"ops": n_ops, "spans": res["spans"]}
    return res, metrics, notes, info


def main(argv=None):
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="source tree to measure (default: this checkout's)")
    args = ap.parse_args(argv)
    args.src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(args.src, "deltachar", "__init__.py")):
        print("error: no deltachar package under %s" % args.src,
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            res, metrics, notes, info = traced(args, deadline)
        else:
            res, metrics, notes, info = end_to_end(args, deadline)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    head = stamp(args.src, args.workload, args.seed)
    head.update(info)
    print("stamp " + json.dumps(head, sort_keys=True))
    for failure in res["failures"]:
        print("FAILED " + failure)
    for name in units:
        value, note = metrics[name], notes.get(name)
        print("%-12s %-52s %14.6g %-6s%s" % (
            args.workload, name, value, units[name],
            "  (%s)" % note if note else ""))
    if not args.trace:
        print("%-12s %-52s %14.6g %-6s  (%d/%d)" % (
            args.workload, "failed_ops_frac",
            res["failed"] / res["attempted"], "frac", res["failed"],
            res["attempted"]))
    correct = res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
