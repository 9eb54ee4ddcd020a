"""Compare two sets of benchmark runs: parent against change.

    python3 perfbench/compare.py run --parent ../parent --change . \\
        [--seed-base heldout|default] [--workload W ...] \\
        [--out perfbench/out/compare]
    python3 perfbench/compare.py report PARENT.jsonl CHANGE.jsonl

`run` measures both source trees (`<dir>/src`) with this checkout's
benchmark code and BENCHMARK.json's run length, in PAIRS pairs that share a
seed and alternate which side runs first, writes parent.jsonl and
change.jsonl, then reports.  `report` reads two such files (run.py results,
one JSON object per line, as steady.py also writes them); runs are paired
by workload and seed.  A run whose checks failed is kept and its failures
are printed; only a run that produced no result stops `run`.

For each workload and end-to-end metric it prints each side's median and
quartiles, the change's win share over pairs (ties count for neither), and
a verdict:

  improved      the change wins at least 9/10 of the pairs, the medians
                differ, in the better direction, by more than the parent's
                interquartile distance, and the change failed no more
                operations than the parent
  unresolved    either side's interquartile spread (as a share of its
                median) exceeds the metric's bound, unless every change run
                reads better than every parent run
  worse         the change's median is worse than the parent's by more than
                the bound
  within bound  otherwise
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run as bench

PAIRS = 10
SEED_BASES = {"default": bench.DEFAULT_SEED, "heldout": bench.HELDOUT_SEED}


def read_runs(path):
    runs = {}
    with open(path) as handle:
        for line in handle:
            if line.strip():
                row = json.loads(line)
                runs[(row["workload"], row["seed"])] = row
    return runs


def run_one(src, workload, seed):
    """One untraced run of this checkout's benchmark, at BENCHMARK.json's
    run length, on the tree at src."""
    cmd = [sys.executable, os.path.join(bench.HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", "0",
           "--src", src]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit("run failed (%s, seed %d, %s): %s" % (
            workload, seed, src, proc.stderr.strip()[-400:]))
    stamp = next((json.loads(l[len("stamp "):]) for l in lines
                  if l.startswith("stamp ")), {})
    failures = [l[len("FAILED "):] for l in lines if l.startswith("FAILED ")]
    for failure in failures:
        print("%s seed %d %s: FAILED %s" % (workload, seed, src, failure),
              file=sys.stderr)
    return {"workload": workload, "seed": seed, "src": src, "stamp": stamp,
            "failures": failures, "result": json.loads(lines[-1])}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent, change, better, bound, more_failed=False):
    """Apply the rule in the module docstring; returns (verdict, win share).
    more_failed: the change failed more operations than the parent."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    share = wins / len(parent)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gain = sign * (c_med - p_med)
    if share >= 0.9 and gain > p_q3 - p_q1 and not more_failed:
        return "improved", share
    if sign > 0:
        all_better = min(change) > max(parent)
    else:
        all_better = max(change) < min(parent)
    if max(bench.spread(parent), bench.spread(change)) > bound \
            and not all_better:
        return "unresolved", share
    if gain < -bound * abs(p_med):
        return "worse", share
    return "within bound", share


def report(parent_runs, change_runs, spec):
    keys = sorted(set(parent_runs) & set(change_runs))
    if not keys:
        raise SystemExit("no (workload, seed) appears in both sets")
    workloads = [w["name"] for w in spec["workloads"]
                 if any(k[0] == w["name"] for k in keys)]

    def failed(runs, pairs):
        return sum(runs[k]["result"]["failed"] for k in pairs)

    print("%-11s %-12s %-32s %-32s %5s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "verdict"))
    for workload in workloads:
        pairs = [k for k in keys if k[0] == workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [parent_runs[k]["result"]["metrics"][name]["value"]
                      for k in pairs]
            change = [change_runs[k]["result"]["metrics"][name]["value"]
                      for k in pairs]
            result, share = verdict(
                parent, change, metric["better"], metric["bound"],
                failed(change_runs, pairs) > failed(parent_runs, pairs))
            cells = []
            for values in (parent, change):
                q1, med, q3 = quartiles(values)
                cells.append("%.5g [%.5g, %.5g]" % (med, q1, q3))
            print("%-11s %-12s %-32s %-32s %4.0f%%  %s (bound %g, %d pairs)"
                  % (workload, name, cells[0], cells[1], 100 * share, result,
                     metric["bound"], len(pairs)))
        for side, runs in (("parent", parent_runs), ("change", change_runs)):
            n_failed = failed(runs, pairs)
            if n_failed:
                print("%-11s %s failed %d operations" % (workload, side,
                                                         n_failed))
                for k in pairs:
                    for failure in runs[k].get("failures", []):
                        print("  seed %d: %s" % (k[1], failure))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    pr = sub.add_parser("run")
    pr.add_argument("--parent", required=True, help="parent checkout")
    pr.add_argument("--change", required=True, help="change checkout")
    pr.add_argument("--seed-base", choices=sorted(SEED_BASES),
                    default="heldout")
    pr.add_argument("--workload", action="append")
    pr.add_argument("--out", default=os.path.join(bench.HERE, "out",
                                                  "compare"))
    rp = sub.add_parser("report")
    rp.add_argument("parent")
    rp.add_argument("change")
    args = ap.parse_args(argv)
    spec = bench.load_spec()
    if args.command == "report":
        report(read_runs(args.parent), read_runs(args.change), spec)
        return 0

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    base = SEED_BASES[args.seed_base]
    os.makedirs(args.out, exist_ok=True)
    paths = {side: os.path.join(args.out, side + ".jsonl")
             for side in ("parent", "change")}
    trees = {"parent": os.path.join(os.path.abspath(args.parent), "src"),
             "change": os.path.join(os.path.abspath(args.change), "src")}
    with open(paths["parent"], "w") as p_out, \
            open(paths["change"], "w") as c_out:
        sinks = {"parent": p_out, "change": c_out}
        for workload in workloads:
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 \
                    else ("change", "parent")
                for side in order:
                    row = run_one(trees[side], workload, base + i)
                    sinks[side].write(json.dumps(row) + "\n")
                    sinks[side].flush()
                print("%s pair %d/%d done" % (workload, i + 1, PAIRS),
                      file=sys.stderr)
    report(read_runs(paths["parent"]), read_runs(paths["change"]), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
