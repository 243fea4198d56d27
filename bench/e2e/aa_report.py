#!/usr/bin/env python3
"""The A/A report: reads the result lines aa.sh left in the directory given as
the argument, prints spreads, set medians and verdicts against BENCHMARK.json,
and writes bench/e2e/baseline/{aa_a,aa_b,baseline}.json. Run from the root of
the repository; exits 1 on any miss."""
import json, statistics, sys

out = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in bench["workloads"]]
e2e = bench["end_to_end"]
seconds = bench["run_seconds"]
seeds = list(range(1, 11))
sets = {"aa_a": seeds[0::2], "aa_b": seeds[1::2]}

# Counts and simulated times that must repeat exactly, whatever the seed.
EXACT = [
    "hstreams.actions_per_op", "hstreams.bytes_per_op",
    "tune.candidates_per_sweep", "tune.evaluator_calls", "micsim.tasks_per_sweep",
    "serve.batch_tenants_mean", "serve.rounds_per_cycle", "serve.syncs_elided_per_round",
    "sim.makespan_ms.hbench", "sim.makespan_ms.mm", "sim.makespan_ms.cf",
    "sim.makespan_ms.nn", "sim.makespan_ms.kmeans", "sim_makespan_ms",
]

def load(seed, w, trace):
    r = json.load(open(f"{out}/{seed}_{w}_{trace}.json"))
    assert set(r) == {"correct", "attempted", "failed", "metrics"}, r.keys()
    return r

runs = {(s, w, t): load(s, w, t) for s in seeds for w in workloads for t in (0, 1)}
misses = []

def values(w, trace, name, among):
    return [runs[(s, w, trace)]["metrics"][name]["value"] for s in among]

def worse(first, second, better):
    """By what share of `first` the median `second` is worse."""
    return (second - first) / first if better == "lower" else (first - second) / first

print(f"\nA/A over seeds 1-10, {seconds} s windows")
print(f"{'workload':<14}{'metric':<13}{'median':>12}{'IQR/med':>9}{'bound/3':>9}"
      f"{'med A':>12}{'med B':>12}{'B vs A':>9}{'bound':>7}  verdict")
for w in workloads:
    for m in e2e:
        name, bound, better = m["name"], m["bound"], m["better"]
        ten = values(w, 0, name, seeds)
        q1, med, q3 = statistics.quantiles(ten, n=4)
        spread = (q3 - q1) / med
        a = statistics.median(values(w, 0, name, sets["aa_a"]))
        b = statistics.median(values(w, 0, name, sets["aa_b"]))
        drift = max(worse(a, b, better), worse(b, a, better))
        if drift > bound:
            verdict = "MISS: the sets' medians are apart by more than the bound"
        elif spread > bound:
            verdict = "MISS: spread beyond the bound"
        elif spread > bound / 3:
            verdict = "MISS: spread beyond a third of the bound"
        else:
            verdict = "ok"
        if verdict != "ok":
            misses.append(f"{w} {name}")
        print(f"{w:<14}{name:<13}{med:>12.5g}{spread:>9.4f}{bound / 3:>9.4f}"
              f"{a:>12.5g}{b:>12.5g}{drift:>+9.4f}{bound:>7.2f}  {verdict}")

print("\nexact counts and simulated makespans (identical in all ten runs):")
for w in workloads:
    for name in EXACT:
        ten = values(w, 1, name, seeds)
        if len(set(ten)) != 1:
            misses.append(f"{w} {name} not exact")
            print(f"  MISS {w} {name}: {sorted(set(ten))}")
    first = {n: values(w, 1, n, seeds[:1])[0] for n in EXACT}
    print(f"  {w}: " + ", ".join(f"{n}={v:g}" for n, v in first.items() if v != 0))

print("\nops per window:")
for w in workloads:
    attempted = [runs[(s, w, 0)]["attempted"] for s in seeds]
    print(f"  {w}: {min(attempted)}-{max(attempted)}")
    if min(attempted) < 1000:
        misses.append(f"{w} fewer than 1000 ops in a window")

for (s, w, t), r in runs.items():
    if r["failed"] or not r["correct"] or r["attempted"] < 1:
        misses.append(f"{w} seed {s} trace {t} failed ops")
        print(f"  MISS seed {s} {w} trace {t}: failed {r['failed']} of {r['attempted']}")
dark = {w: max(values(w, 1, "dark_frac", seeds)) for w in workloads}
print("\nlargest dark_frac per workload:", ", ".join(f"{w} {v:.4f}" for w, v in dark.items()))
misses += [f"{w} dark_frac" for w, v in dark.items() if v > 0.05]

def summarise(among, trace):
    doc = {}
    for w in workloads:
        names = runs[(among[0], w, trace)]["metrics"]
        doc[w] = {}
        for n in names:
            vs = values(w, trace, n, among)
            doc[w][n] = {"unit": names[n]["unit"], "median": statistics.median(vs), "values": vs}
    return doc

for label, among in sets.items():
    doc = {"seeds": among, "seconds": seconds, "end_to_end": summarise(among, 0)}
    json.dump(doc, open(f"bench/e2e/baseline/{label}.json", "w"), indent=1)
base = {
    "seeds": seeds,
    "seconds": seconds,
    "attempted": {w: [runs[(s, w, 0)]["attempted"] for s in seeds] for w in workloads},
    "failed": {w: sum(runs[(s, w, t)]["failed"] for s in seeds for t in (0, 1)) for w in workloads},
    "end_to_end": summarise(seeds, 0),
    "per_layer": summarise(seeds, 1),
}
json.dump(base, open("bench/e2e/baseline/baseline.json", "w"), indent=1)
print("\nwrote bench/e2e/baseline/{aa_a,aa_b,baseline}.json")
if misses:
    print(f"A/A FAIL ({len(misses)}): " + "; ".join(misses))
    sys.exit(1)
print("A/A PASS")
