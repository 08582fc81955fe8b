#!/usr/bin/env python3
"""Repeatability and A/B report for the repository benchmark.

Runs sets of rounds through perfbench/run.py, or reads recorded ones, and
checks per (workload, end-to-end metric) that the second set's median is
not worse than the first's by more than the metric's bound in
BENCHMARK.json.

    # two sets of this checkout against itself, 5 rounds each
    python3 perfbench/agree.py run --rounds 5 --out self.jsonl

    # parent against change: each side is a checkout root
    python3 perfbench/agree.py run --rounds 10 \\
        --side parent=../parent --side change=. --out ab.jsonl

    # report recorded rounds again
    python3 perfbench/agree.py report self.jsonl

Round r uses seed base+r on every side. Sides alternate which runs first,
and the workload order reverses, from one round to the next.

Per (workload, metric) the report prints each set's median, quartiles and
spread across seeds, (q3 - q1) / median, then how much worse the second
set is than the first: by their medians ("worse"), and by the median of
the per-round ratios ("paired"). A round runs both sides on one seed, so
its ratio cancels what the inputs contribute; "p.spread" is the quartile
distance of those ratios. Verdicts:

    WORSE       "worse" or "paired" exceeds the bound
    unresolved  the paired spread, or a set's spread across seeds,
                exceeds the bound (set-up time is exempt): the medians
                cannot then be told apart
    ok          otherwise

The exit code is 0 only when every verdict is ok and no run failed.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, workload, seed, seconds):
    """One benchmark run from checkout `root`; returns its result line."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    # Each checkout builds into its own .bench_build: a shared build
    # directory would run one side's binary for both.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    child = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
    try:
        stdout, _ = child.communicate()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return json.loads(lines[-1])


def cmd_run(args, bench):
    sides = []
    for spec in args.side or ["A=" + ROOT, "B=" + ROOT]:
        name, _, root = spec.partition("=")
        sides.append((name, os.path.abspath(root or ".")))
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    records = []
    with open(args.out, "a") as out:
        for r in range(args.rounds):
            seed = args.seed_base + r
            order = sides if r % 2 == 0 else sides[::-1]
            wl = workloads if r % 2 == 0 else workloads[::-1]
            for name, root in order:
                for workload in wl:
                    result = run_once(root, workload, seed, seconds)
                    rec = {"side": name, "round": r, "seed": seed,
                           "workload": workload, "result": result}
                    out.write(json.dumps(rec) + "\n")
                    out.flush()
                    records.append(rec)
                    print("round %d %s %s: correct=%s failed=%s" % (
                        r, name, workload, result["correct"],
                        result["failed"]), file=sys.stderr)
    return report(records, bench)


def cmd_report(args, bench):
    records = []
    for path in args.files:
        with open(path) as f:
            records += [json.loads(line) for line in f if line.strip()]
    return report(records, bench)


def quartiles(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return median, q1, q3


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative = better)."""
    change = (second - first) / first if first else 0.0
    return change if better == "lower" else -change


def report(records, bench):
    sides = []
    for rec in records:
        if rec["side"] not in sides:
            sides.append(rec["side"])
    failed_runs = [r for r in records
                   if not r["result"]["correct"] or r["result"]["failed"]]
    ok = not failed_runs
    workloads = [w["name"] for w in bench["workloads"]]
    print("%-11s %-19s %-6s %3s %12s %12s %12s %7s %8s %8s %8s  %s" % (
        "workload", "metric", "set", "n", "median", "q1", "q3", "spread",
        "worse", "paired", "p.spread", "verdict"))
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            by_side = {}
            for r in records:
                if r["workload"] == workload and name in r["result"]["metrics"]:
                    by_side.setdefault(r["side"], {})[r["round"]] = (
                        r["result"]["metrics"][name]["value"])
            rows = [(side, by_side[side]) for side in sides if side in by_side]
            if not rows:
                continue
            stats = []
            for side, values in rows:
                median, q1, q3 = quartiles(list(values.values()))
                spread = (q3 - q1) / median if median else float("inf")
                stats.append((side, len(values), median, q1, q3, spread))
            spreads = [s[5] for s in stats]
            worse = paired = paired_spread = None
            if len(rows) >= 2:
                (_, a), (_, b) = rows[0], rows[1]
                worse = worse_by(stats[0][2], stats[1][2], metric["better"])
                # Each round ran both sides on the same seed, so the
                # per-round ratio cancels what the inputs contribute.
                ratios = [worse_by(a[r], b[r], metric["better"])
                          for r in sorted(set(a) & set(b))]
                if ratios:
                    paired, p1, p3 = quartiles(ratios)
                    paired_spread = p3 - p1
                    spreads.append(paired_spread)
            # Set-up time is exempt from the spread checks: a set-up lasts
            # milliseconds, so its spread across runs says little.
            if name != "setup_s" and any(s > bound for s in spreads):
                verdict = "unresolved"
            elif any(x is not None and x > bound for x in (worse, paired)):
                verdict = "WORSE"
            else:
                verdict = "ok"
            ok = ok and verdict == "ok"
            tail = ["" if x is None else f % x for f, x in (
                ("%+.4f", worse), ("%+.4f", paired), ("%.4f", paired_spread))]
            tail.append("%s (bound %.2f)" % (verdict, bound))
            for i, (side, n, median, q1, q3, spread) in enumerate(stats):
                cells = tail if i == len(stats) - 1 else [""] * 4
                print("%-11s %-19s %-6s %3d %12.6g %12.6g %12.6g %7.4f %8s "
                      "%8s %8s  %s" % ((workload, name, side, n, median, q1,
                                         q3, spread) + tuple(cells)))
    for rec in failed_runs:
        print("failed run: side %s round %d workload %s" % (
            rec["side"], rec["round"], rec["workload"]))
    print("agree: %s" % ("yes" if ok else "NO"))
    return 0 if ok else 1


def main():
    # A SIGTERM unwinds through run_once's finally, which stops the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run rounds, then report")
    run.add_argument("--rounds", type=int, default=5)
    run.add_argument("--side", action="append",
                     help="NAME=CHECKOUT_ROOT; give two (default: this "
                     "checkout twice, as A and B)")
    run.add_argument("--workloads", help="comma-separated subset")
    run.add_argument("--seconds", type=int,
                     help="default: run_seconds of BENCHMARK.json")
    run.add_argument("--seed-base", type=int, default=1)
    run.add_argument("--out", required=True,
                     help="JSON-lines file the rounds are appended to")
    rep = sub.add_parser("report", help="report recorded rounds")
    rep.add_argument("files", nargs="+")
    args = parser.parse_args()
    bench = load_benchmark()
    return cmd_run(args, bench) if args.command == "run" else cmd_report(
        args, bench)


if __name__ == "__main__":
    sys.exit(main())
