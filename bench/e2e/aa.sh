#!/usr/bin/env bash
# A/A check: the same code measured twice must agree with itself.
#
# Two interleaved sets (A: seeds 1 3 5 7 9, B: seeds 2 4 6 8 10) of five full
# runs each — a full run is every workload with --trace 0 and with --trace 1,
# at the window length BENCHMARK.json gives. Prints, per workload and
# end-to-end metric, IQR / median over the ten runs (quartiles as Python's
# statistics.quantiles(n=4)) and the two sets' medians, and checks
#
#   - every spread against a third of the metric's bound (the acceptance
#     criterion; the driver itself refuses only a spread beyond the whole
#     bound, and does not hold setup_s to it),
#   - the two sets' medians against the bound, as the driver does,
#   - that every exact count and simulated makespan is identical in all ten
#     runs, that no op failed, and that dark_frac stays within 0.05.
#
# Any miss fails the script. It writes bench/e2e/baseline/{aa_a,aa_b,baseline}.json
# either way: the record of what was measured, not of what was hoped for. The
# checks and the writing are aa_report.py, which reads what the runs left in
# bench/e2e/results/aa.
#
#   bench/e2e/aa.sh        # ~35 min
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
out=bench/e2e/results/aa
rm -rf "$out"
mkdir -p "$out" bench/e2e/baseline

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for seed in 1 2 3 4 5 6 7 8 9 10; do
  for w in $workloads; do
    for trace in 0 1; do
      echo "aa: seed $seed $w trace $trace" >&2
      bash bench/e2e/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
        2>"$out/${seed}_${w}_${trace}.log" | tail -n 1 >"$out/${seed}_${w}_${trace}.json"
    done
  done
done

python3 bench/e2e/aa_report.py "$out"
