#!/usr/bin/env python3
"""Fail unless a `mic-e2e --trace 1` result line (stdin) has no failed op and
carries exactly the committed baseline's value for each named metric.

    bash bench/e2e/run.sh --workload sim_sweep --seed 1 --seconds 3 --trace 1 \
        | python3 scripts/sim_exact.py bench/e2e/baseline/baseline.json sim_sweep \
              sim_makespan_ms tune.evaluator_calls ...

Only for metrics that do not depend on the host, the seed or the run length
(simulated makespans, action and byte counts): a change that moves one has
changed the simulator, the tuner, the executor's accounting or a recorded
program. `scripts/verify.sh` holds the list per workload.
"""
import json
import sys

baseline_path, workload, *exact = sys.argv[1:]
if not exact:
    sys.exit("usage: sim_exact.py BASELINE.json WORKLOAD METRIC...")
with open(baseline_path) as f:
    baseline = json.load(f)["per_layer"][workload]
result = json.loads(sys.stdin.readlines()[-1])
if not result["correct"] or result["failed"]:
    sys.exit(f"{workload}: {result['failed']} of {result['attempted']} ops failed")
moved = [
    f"  {name}: {result['metrics'][name]['value']!r} != baseline {baseline[name]['median']!r}"
    for name in exact
    if result["metrics"][name]["value"] != baseline[name]["median"]
]
if moved:
    sys.exit(f"{workload}: exact metrics moved off {baseline_path}:\n" + "\n".join(moved))
print(f"{workload}: all {len(exact)} exact metrics equal the baseline")
