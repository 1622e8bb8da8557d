#!/usr/bin/env python3
"""Build one point of the alphapim_bench performance trajectory.

    python3 tools/bench_point.py [DIR] --label TEXT --commit SHA
        --machine TEXT [--seed 42] [--seconds 20] [--threads 4]
        [--append BENCH_suite.json]

DIR (default .bench_build/repeat) holds the per-run result JSON that
bench/suite/repeat.sh saves: the last stdout line of alphapim_bench,
`{"correct", "attempted", "failed", "metrics"}`.

  WORKLOAD.runI.json                  untraced run I, seed SEED + I
  WORKLOAD.threadsT.trace1*.json      traced runs at T threads: the
                                      one repeat.sh saves at seed SEED,
                                      plus any more saved beside it
                                      (e.g. WORKLOAD.threads4.trace1.run3.json)

For every workload in BENCHMARK.json the point holds the median and
quartiles of the five end-to-end metrics over the untraced runs, the
failed-op count, and, from the traced runs at --threads, the median
of seven per-layer metrics (the three set-up spans and four round
phases) with the number of traced runs as `traced_runs`. A single
traced run swings with host noise; the median of several does not.
The point is printed as JSON, or appended to the trajectory file
given with --append.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED = ["sparse.generate_s", "sparse.stats_s", "core.engine_build_s",
          "upmem.replay_s", "upmem.trace_record_s", "apps.host_merge_s",
          "upmem.replay_mslots_per_s"]


def load(path):
    with open(path) as f:
        return json.load(f)


def sig(value):
    """Six significant digits: more than any host-clock metric holds."""
    return float(f"{value:.6g}")


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": sig(median), "q1": sig(q1), "q3": sig(q3)}


def workload_point(directory, workload, end_to_end, threads):
    runs = sorted(directory.glob(f"{workload}.run*.json"),
                  key=lambda p: int(p.stem.rsplit(".run", 1)[1]))
    if len(runs) < 2:
        sys.exit(f"bench_point: need at least 2 runs of {workload} "
                 f"in {directory}")
    results = [load(p) for p in runs]
    point = {"runs": len(results),
             "failed": sum(r["failed"] for r in results)}
    for name in end_to_end:
        point[name] = summary([r["metrics"][name]["value"]
                               for r in results])
    traced = [load(p)["metrics"] for p in sorted(
        directory.glob(f"{workload}.threads{threads}.trace1*.json"))]
    if traced:
        point["traced_runs"] = len(traced)
        point["traced"] = {
            name: sig(statistics.median(m[name]["value"] for m in traced))
            for name in TRACED}
    return point


def main():
    parser = argparse.ArgumentParser(
        description="Build one BENCH_suite.json trajectory point.")
    parser.add_argument("dir", nargs="?", type=Path,
                        default=ROOT / ".bench_build" / "repeat")
    parser.add_argument("--label", required=True)
    parser.add_argument("--commit", required=True)
    parser.add_argument("--machine", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--append", type=Path)
    args = parser.parse_args()

    spec = load(ROOT / "BENCHMARK.json")
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    workloads = {w["name"]: workload_point(args.dir, w["name"], end_to_end,
                                           args.threads)
                 for w in spec["workloads"]}
    runs = min(w["runs"] for w in workloads.values())
    point = {
        "label": args.label,
        "commit": args.commit,
        "copied": False,
        "machine": args.machine,
        "threads": args.threads,
        "seeds": list(range(args.seed, args.seed + runs)),
        "seconds": args.seconds,
        "method": "bench/suite/repeat.sh: untraced runs, one per seed; "
                  "traced metrics are the median over every traced run "
                  "at these threads (traced_runs of them)",
        "workloads": workloads,
    }
    if args.append is None:
        json.dump(point, sys.stdout, indent=2)
        print()
        return
    trajectory = load(args.append)
    trajectory["points"].append(point)
    with open(args.append, "w") as f:
        json.dump(trajectory, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
