"""Check that the benchmark is steady: several seeds per workload.

    python3 perfbench/steady.py [--runs 10] [--seed-base default|heldout]
                                [--workload W ...] [--out FILE.jsonl]

Runs each workload `--runs` times on this checkout, at BENCHMARK.json's
run length, seed base, base+1, ..., and prints for
every end-to-end metric the median and the interquartile distance as a
share of the median (statistics.quantiles(values, n=4)), next to the
metric's bound from BENCHMARK.json.  A spread above the bound (setup_s
excepted) means the benchmark cannot tell a change from noise on that
metric; the aim is a spread below a third of the bound.  Check both the
default and the held-out seed base.  The runs are written as JSON lines that
`compare.py report` reads, so two sets of runs of the same tree can be
compared with each other.
"""

import argparse
import json
import os
import statistics
import sys

import compare
import run as bench


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", choices=sorted(compare.SEED_BASES),
                    default="default")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    spec = bench.load_spec()
    base = compare.SEED_BASES[args.seed_base]
    src = os.path.join(bench.ROOT, "src")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    out_path = args.out or os.path.join(
        bench.HERE, "out", "steady-%s.jsonl" % args.seed_base)
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    worst = 0.0
    with open(out_path, "w") as sink:
        for workload in workloads:
            rows = []
            for i in range(args.runs):
                row = compare.run_one(src, workload, base + i)
                sink.write(json.dumps(row) + "\n")
                sink.flush()
                rows.append(row)
            for metric in spec["end_to_end"]:
                name = metric["name"]
                values = [r["result"]["metrics"][name]["value"] for r in rows]
                share = bench.spread(values)
                if name != "setup_s":
                    worst = max(worst, share / metric["bound"])
                print("%-11s %-12s median %-10.5g spread %6.3f  bound %.3f"
                      "  spread/bound %.2f  [%s]" % (
                          workload, name, statistics.median(values), share,
                          metric["bound"], share / metric["bound"],
                          " ".join("%.4g" % v for v in values)), flush=True)
            bad = [r["seed"] for r in rows if not r["result"]["correct"]]
            if bad:
                print("%-11s failed checks on seeds %s" % (workload, bad))
    print("largest spread/bound (setup_s excepted): %.2f" % worst)
    print("runs written to %s" % out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
