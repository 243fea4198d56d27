#!/usr/bin/env python3
"""Fail unless a `sim_sweep --trace 1` result line (stdin) carries exactly the
simulated makespans and counts of the committed baseline.

    bash bench/e2e/run.sh --workload sim_sweep --seed 1 --seconds 3 --trace 1 \
        | python3 scripts/sim_exact.py bench/e2e/baseline/baseline.json

These eleven do not depend on the host, the seed or the run length: a change
that moves one has changed the simulator, the tuner or a recorded program.
"""
import json
import sys

EXACT = [f"sim.makespan_ms.{app}" for app in ("hbench", "mm", "cf", "nn", "kmeans")] + [
    "sim_makespan_ms",
    "tune.candidates_per_sweep",
    "tune.evaluator_calls",
    "micsim.tasks_per_sweep",
    "hstreams.actions_per_op",
    "hstreams.bytes_per_op",
]

with open(sys.argv[1]) as f:
    baseline = json.load(f)["per_layer"]["sim_sweep"]
result = json.loads(sys.stdin.readlines()[-1])
if not result["correct"] or result["failed"]:
    sys.exit(f"sim_sweep: {result['failed']} of {result['attempted']} ops failed")
moved = [
    f"  {name}: {result['metrics'][name]['value']!r} != baseline {baseline[name]['median']!r}"
    for name in EXACT
    if result["metrics"][name]["value"] != baseline[name]["median"]
]
if moved:
    sys.exit("sim_sweep: exact metrics moved off bench/e2e/baseline/baseline.json:\n" + "\n".join(moved))
print(f"sim_sweep: all {len(EXACT)} exact metrics equal the baseline")
