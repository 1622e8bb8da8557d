#!/usr/bin/env bash
# Repeatability check for alphapim_bench (see README.md).
#
#   bench/suite/repeat.sh [RUNS [SEED [SECONDS]]]      defaults: 10 42 15
#
# 1. Runs every workload RUNS times with seeds SEED, SEED+1, ..., taking
#    the workloads in turn so that slow phases of the machine spread
#    over all of them, and prints each end-to-end metric's median,
#    quartiles and spread (Q3 - Q1) / median. A spread above the
#    metric's BENCHMARK.json bound is flagged; setup_s is exempt, its
#    bound applies to the median only.
# 2. Runs every workload at seed SEED with ALPHA_PIM_THREADS=1 and =4,
#    untraced and traced, and diffs the model-clock metrics: they must
#    be identical across thread counts, and model_s must equal the sum
#    of the traced model.* phases.
#
# Exits 1 when anything is flagged. Results go to .bench_build/repeat.
set -eu
cd "$(dirname "$0")/../.."
runs=${1:-10}
seed=${2:-42}
seconds=${3:-15}
out=.bench_build/repeat
# The JSON result is the last line; a failed run shows up in it.
run() { python3 bench/suite/run.py "$@" | tail -n 1; }

mkdir -p "$out"
rm -f "$out"/*.json
workloads=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for ((i = 0; i < runs; i++)); do
    for w in $workloads; do
        run --workload "$w" --seed $((seed + i)) --seconds "$seconds" \
            --trace 0 >"$out/$w.run$i.json"
    done
done
for t in 1 4; do
    for w in $workloads; do
        for trace in 0 1; do
            ALPHA_PIM_THREADS=$t run --workload "$w" --seed "$seed" \
                --seconds 0 --trace "$trace" >"$out/$w.threads$t.trace$trace.json"
        done
    done
done

python3 - "$out" "$runs" $workloads <<'EOF'
import json, statistics, sys

out, runs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
# Model-clock and exact-count per-layer metrics.
exact = [m["name"] for m in spec["per_layer"]
         if m["name"].startswith(("model.", "serve.", "core.spm"))
         and not m["name"].startswith(("serve.step", "serve.submit"))]
exact += ["apps.runs", "apps.iterations", "upmem.dpu_cycles",
          "upmem.instructions", "upmem.issued_frac", "upmem.replay_slots",
          "upmem.trace_records", "upmem.stall_memory_frac",
          "upmem.stall_revolver_frac", "upmem.stall_rf_hazard_frac",
          "upmem.stall_sync_frac", "upmem.xfer_scatter_mb",
          "upmem.xfer_gather_mb", "upmem.xfer_broadcast_mb"]

def load(name):
    with open(f"{out}/{name}.json") as f:
        return json.load(f)

flagged = False
print(f"{'workload':14} {'metric':12} {'median':>12} {'q1':>12} {'q3':>12} "
      f"{'spread':>7} {'bound':>6}")
for w in workloads:
    results = [load(f"{w}.run{i}") for i in range(runs)]
    for r in results:
        if not r["correct"] or r["failed"]:
            print(f"{w}: FAILED ops ({r['failed']} of {r['attempted']})")
            flagged = True
    for metric, bound in bounds.items():
        values = [r["metrics"][metric]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        flag = ""
        if metric != "setup_s" and spread > bound:
            flag, flagged = "  SPREAD ABOVE BOUND", True
        elif metric != "setup_s" and spread > bound / 3:
            flag = "  (above a third of the bound)"
        print(f"{w:14} {metric:12} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:7.3f} {bound:6.2f}{flag}")

print("\nmodel clock, ALPHA_PIM_THREADS=1 vs 4, traced vs untraced:")
for w in workloads:
    runs_by = {(t, tr): load(f"{w}.threads{t}.trace{tr}")["metrics"]
               for t in (1, 4) for tr in (0, 1)}
    diffs = [m for m in exact
             if runs_by[1, 1][m]["value"] != runs_by[4, 1][m]["value"]]
    if runs_by[1, 0]["model_s"]["value"] != runs_by[4, 0]["model_s"]["value"]:
        diffs.append("model_s")
    for t in (1, 4):
        phases = runs_by[t, 1]
        total = (phases["model.load_s"]["value"] + phases["model.kernel_s"]["value"]
                 + phases["model.retrieve_s"]["value"]
                 + phases["model.merge_s"]["value"])
        if total != runs_by[t, 0]["model_s"]["value"]:
            diffs.append(f"traced model.* sum != model_s at {t} thread(s)")
    print(f"  {w:14} {'identical' if not diffs else 'DIFFER: ' + ', '.join(diffs)}")
    flagged = flagged or bool(diffs)
sys.exit(1 if flagged else 0)
EOF
