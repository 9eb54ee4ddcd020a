"""One workload process: set up, say READY, run whole rounds, report JSON.

Started by run.py, never by hand.  Standard output carries exactly two
lines: `READY` when set-up (import, input generation, warm-up) is done and
the first timed operation is about to start, then `RESULT <json>`.  Each
operation's wall time is scaled by the reference speed measured around it
(speed.py); a run ends on the first round boundary after `--seconds` of
operation time scaled at the run's mean speed, so a seed gives the same
operations on a fast machine as on a slow one.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
HARD_WALL_S = 150.0          # stop mid-round past this, to end within 180 s


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, help="run exactly this many ops")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--src", required=True)
    ap.add_argument("--spans", help="write the spans here (traced runs)")
    return ap.parse_args(argv)


def _run_op(op, tracer, index):
    """Time one op; check it outside the timed interval.  Returns (start,
    elapsed, error message or None)."""
    if tracer is not None:
        tracer.op = index
        tracer.active = True
    start = time.perf_counter()
    try:
        result = op.run()
        error = None
    except Exception as exc:         # a failed op is counted, not fatal
        result, error = None, "%s: %s" % (type(exc).__name__, exc)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    if error is None:
        if tracer is not None and op.out_bytes is not None:
            tracer.add("cli.output_bytes", op.out_bytes(result))
        try:
            error = op.check(result)
        except Exception as exc:
            error = "check raised %s: %s" % (type(exc).__name__, exc)
    return start, elapsed, error


def main(argv=None):
    args = _parse(argv)
    wall0 = time.monotonic()
    if not os.path.isfile(os.path.join(args.src, "deltachar", "__init__.py")):
        print("no deltachar package under %s" % args.src, file=sys.stderr)
        return 2
    sys.path.insert(0, args.src)
    import workloads                 # imports deltachar and deltachar.cli

    warmup = workloads.WORKLOADS[args.workload][0]
    workdir = os.path.join(HERE, "out", "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        failures = []
        attempted = failed = 0
        for op in warmup(workdir):
            _, _, error = _run_op(op, None, -1)
            attempted += 1
            if error:
                failed += 1
                failures.append("warm-up %s: %s" % (op.label, error))
        warmup_failed = failed
        rounds = workloads.round_stream(args.workload, args.seed, workdir)
        first = next(rounds)
        gc.collect()
        print("READY", flush=True)
        if args.setup_only:
            return 0

        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
            tracer.install()
        clock = speed.Scaler()
        ops, n_rounds = first, 0
        while True:
            for op in ops:
                start, elapsed, error = _run_op(op, tracer, len(clock.wall))
                clock.add(start, elapsed)
                attempted += 1
                if error:
                    failed += 1
                    failures.append("%s: %s" % (op.label, error))
                if (len(clock.wall) == args.ops
                        or time.monotonic() - wall0 > HARD_WALL_S):
                    break
            else:
                n_rounds += 1
            if args.ops is not None:
                done = len(clock.wall) >= args.ops
            else:
                done = clock.scaled_total() >= args.seconds
            if done or time.monotonic() - wall0 > HARD_WALL_S:
                break
            ops = next(rounds)

        report = {
            "latencies": clock.scaled(),
            "wall_latencies": clock.wall,
            "rounds": n_rounds,
            "tail_pct": workloads.WORKLOADS[args.workload][2],
            "attempted": attempted,
            "failed": failed,
            "timed_failed": failed - warmup_failed,
            "failures": failures[:20],
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if tracer is not None:
            from run import load_spec
            report["layers"] = tracer.layer_metrics(
                [m["name"] for m in load_spec()["per_layer"]])
            report["spans"] = len(tracer.span_start)
            if args.spans:
                tracer.write_spans(args.spans)
        print("RESULT " + json.dumps(report), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
