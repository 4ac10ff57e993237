"""Repeat run.py over several seeds and report the spread of every metric.

    python3 perfbench/sweep.py --seeds 1-10 --seconds 30 \
        [--out sweep.json] [--compare earlier-sweep.json]

Every workload of BENCHMARK.json runs untraced.  Workloads are
interleaved, one seed at a time, and their order is reversed on every
other seed, so slow drift of the host spreads over all of them.
For each workload and metric it prints the median and the distance between
the first and third quartiles as a share of the median, the figure that
BENCHMARK.json's bounds are judged against.  With --compare it also prints
how far each median moved from an earlier sweep, as a share of it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    results = {w: [] for w in workloads}
    for n, seed in enumerate(args.seeds):
        for workload in (workloads if n % 2 == 0 else workloads[::-1]):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", repr(args.seconds),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results[workload].append(result)
            print(f"seed {seed} {workload}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in result["metrics"].items()),
                  flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    earlier = {}
    if args.compare:
        with open(args.compare) as fh:
            earlier = json.load(fh)["medians"]
    medians = {}
    print(f"\n{'workload':12s} {'metric':48s} {'median':>12s} "
          f"{'iqr/med':>8s} {'bound':>6s} {'moved':>8s}")
    for workload, runs in results.items():
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med, rel = spread(values)
            medians.setdefault(workload, {})[metric] = med
            moved = ""
            if metric in earlier.get(workload, {}):
                before = earlier[workload][metric]
                moved = f"{(med - before) / before:+8.3f}" if before else ""
            print(f"{workload:12s} {metric:48s} {med:12.6g} {rel:8.4f} "
                  f"{bounds[metric]:6.3f} {moved}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seconds": args.seconds, "seeds": args.seeds,
                       "results": results, "medians": medians}, fh, indent=1)


if __name__ == "__main__":
    main()
