#!/usr/bin/env python3
"""ctest bench_suite_smoke: every workload on tiny inputs, untraced and traced.

    python3 smoke.py ALPHAPIM_BENCH BENCHMARK.json

Checks that each run exits 0 with a correct result and no failed op,
and that it prints exactly the metrics BENCHMARK.json lists for its
mode, each with its unit, both as text lines and in the JSON result.
No wall-clock threshold: the numbers themselves are not checked.
"""

import json
import subprocess
import sys


def check(binary, workload, trace, expected):
    tag = f"{workload} trace={trace}"
    run = subprocess.run(
        [binary, "--workload", workload, "--smoke", "--seconds", "0",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=120)
    if run.returncode != 0:
        return [f"{tag}: exit {run.returncode}: {run.stderr.strip()}"]
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{tag}: correct={result['correct']} "
                        f"attempted={result['attempted']} "
                        f"failed={result['failed']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 4 and fields[0] == workload:
            printed[fields[1]] = fields[3]
    for what, names in (("JSON result", got), ("text lines", printed)):
        if names != expected:
            problems.append(
                f"{tag}: {what} differ from BENCHMARK.json: missing "
                f"{sorted(set(expected) - set(names))}, extra "
                f"{sorted(set(names) - set(expected))}, units "
                f"{sorted(n for n in names if n in expected and names[n] != expected[n])}")
    return problems


def main():
    binary, spec_path = sys.argv[1:3]
    with open(spec_path) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check(binary, workload, trace, expected[trace])
    print("\n".join(problems) or "smoke: every workload OK")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
