#!/usr/bin/env bash
# Repo verification gate: formatting, lints, build, every test target of
# the workspace in both profiles, the ledger's own tests, and the
# simulator's and the native executor's exact numbers against the
# committed baseline. Every pass/fail property is a test; no binary gates.
# Run from the repo root: ./scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# The non-test code of one Rust file: everything above its first column-0
# `#[cfg(test)]`, the attribute on its test module or on a test-only item
# after the code. An indented one gates a single member, and the phrase in
# a comment is no attribute; neither ends the file's code.
nontest() { sed '/^#\[cfg(test)\]/,$d' "$1"; }

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings, plus curated pedantic subset)"
cargo clippy --workspace --all-targets -- -D warnings \
  -W clippy::needless_pass_by_value \
  -W clippy::semicolon_if_nothing_returned \
  -W clippy::redundant_closure_for_method_calls

echo "==> unsafe-code audit (every unsafe site carries a SAFETY comment)"
unaudited=0
while IFS=: read -r file line _; do
  start=$(( line > 6 ? line - 6 : 1 ))
  if ! sed -n "${start},${line}p" "$file" | grep -q "SAFETY"; then
    echo "  missing SAFETY comment: $file:$line"
    unaudited=1
  fi
done < <(grep -rnE 'unsafe (impl|fn)|unsafe ?\{' crates shims src bench/e2e/src --include='*.rs' \
           | grep -vE ':[[:space:]]*(//|//!|///)')
[ "$unaudited" -eq 0 ] || { echo "unsafe audit failed"; exit 1; }

echo "==> shim audit (every shims/<name> is a dependency of some manifest)"
for shim in shims/*/; do
  name=$(basename "$shim")
  # `name.workspace = true` / `name = {` under [dependencies] or
  # [dev-dependencies] of a crate or of the root package; the
  # [workspace.dependencies] table alone does not count as an importer.
  if ! awk -v name="$name" '
         /^\[/ { deps = ($0 == "[dependencies]" || $0 == "[dev-dependencies]") }
         deps && $0 ~ "^" name "(\\.workspace)? *=" { found = 1 }
         END { exit !found }' crates/*/Cargo.toml Cargo.toml; then
    echo "  shims/$name has no importer: delete it with its [workspace.dependencies] line"
    exit 1
  fi
done

echo "==> one price list (the three pricing expressions live in the cost model only)"
for pat in 'transfer_time(' 'kernel_time(' 'host_equivalents'; do
  files=$(find crates/core/src -name '*.rs' | sort | while read -r f; do
            if nontest "$f" | grep -F "$pat" >/dev/null; then echo "$f"; fi
          done)
  if [ "$files" != "crates/core/src/sched/cost.rs" ]; then
    echo "  '$pat' outside the cost model (non-test code): $(echo $files)"
    exit 1
  fi
done

echo "==> one lowering (the simulator builds one engine, in one loop; no schedule is re-recorded as a program)"
for pat in 'Engine::with_capacity(' 'LaneMap::for_context('; do
  hits=$(nontest crates/core/src/executor/sim.rs | grep -cF "$pat" || true)
  if [ "$hits" -ne 1 ]; then
    echo "  '$pat' occurs $hits times in non-test executor/sim.rs (want exactly 1)"
    exit 1
  fi
done
if nontest crates/core/src/executor/sim.rs | grep -nF 'Engine::new('; then
  echo "  a second engine in non-test executor/sim.rs (the lowering sizes its one engine up front)"
  exit 1
fi
if grep -rn 'materialize' crates/core/src | grep -v 'ensure_materialized'; then
  echo "  'materialize' is back under crates/core/src (only Buffer::ensure_materialized may say it)"
  exit 1
fi

echo "==> one native driver loop (a recorded and a scheduled run go through the same drive(), dispatched over dependence counters)"
native=$(nontest crates/core/src/executor/native.rs)
hits=$(grep -cF 'run_fixed(' <<<"$native" || true)
if [ "$hits" -ne 1 ]; then
  echo "  'run_fixed(' occurs $hits times in non-test executor/native.rs (want exactly 1)"
  exit 1
fi
for pat in 'fn drive_stream' 'fn dispatch_driver' 'GraphDispatch' 'EventFlag' 'Barrier::new' 'BTreeSet' 'abort_run'; do
  if grep -nF "$pat" <<<"$native"; then
    echo "  '$pat' is back in non-test executor/native.rs (a second way to run natively)"
    exit 1
  fi
done

echo "==> one run front end (both executors take their walk from executor::prepare: one gate that every run passes, one plan; Program::validate checks the events table)"
if grep -rnF 'CheckMode' crates/; then
  echo "  'CheckMode' is back under crates/ (every run is checked: errors always refuse, Context::analyze reports without running)"
  exit 1
fi
if nontest crates/core/src/executor/mod.rs | grep -nF 'event_site_matches('; then
  echo "  'event_site_matches(' is back in non-test crates/core/src/executor/mod.rs (Program::validate checks the events table in its one walk of the actions)"
  exit 1
fi
for f in crates/core/src/executor/native.rs crates/core/src/executor/sim.rs crates/core/src/context.rs; do
  for pat in 'enforce_check' 'plan_analyzed(' 'HbGraph::build(' 'event_site_matches(' 'alloc_fails('; do
    if nontest "$f" | grep -nF "$pat"; then
      echo "  '$pat' is back in non-test $f (executor::prepare does this once for both executors)"
      exit 1
    fi
  done
done
hits=$(grep -rF 'enum Walk' crates/core/src/executor/ | wc -l)
if [ "$hits" -ne 1 ]; then
  echo "  'enum Walk' occurs $hits times under crates/core/src/executor/ (want exactly 1, executor::Walk)"
  exit 1
fi

echo "==> one check per distinct program (the native runtime's walk memo checks and builds a repeated program's walk once)"
hits=$(grep -rF 'struct WalkMemo' crates/core/src/executor/ | wc -l)
if [ "$hits" -ne 1 ]; then
  echo "  'struct WalkMemo' occurs $hits times under crates/core/src/executor/ (want exactly 1, executor::WalkMemo)"
  exit 1
fi
if nontest crates/core/src/executor/native.rs | grep -nF '.analyze('; then
  echo "  '.analyze(' is back in non-test executor/native.rs (the front end analyzes a program once per key; recovery derives its basis once per resilient run)"
  exit 1
fi
executor=$(for f in crates/core/src/executor/*.rs; do nontest "$f"; done)
for pat in 'ensure_materialized(' 'thread::park('; do
  hits=$(grep -cF "$pat" <<<"$executor" || true)
  if [ "$hits" -ne 1 ]; then
    echo "  '$pat' occurs $hits times in non-test crates/core/src/executor/ (want exactly 1: execute backs a program's buffers unless the memo says a run did, Parker::sleep_until parks)"
    exit 1
  fi
done

echo "==> one access table (accesses are counting-sorted once into one table; the engine keeps its edges flat)"
if nontest crates/core/src/check/races.rs | grep -nF 'HashMap'; then
  echo "  'HashMap' is back in non-test check/races.rs (accesses live in one sorted table)"
  exit 1
fi
sorts=$(for f in crates/core/src/check/*.rs crates/core/src/sched/graph.rs; do
          nontest "$f" | { grep -F 'sort_by_key' || true; } | sed "s|^|$f: |"
        done)
if [ -n "$sorts" ]; then
  echo "  access groups are comparison-sorted again (Accesses::collect counting-sorts the one table):"
  echo "$sorts"
  exit 1
fi
engine=$(nontest crates/simhw/src/engine.rs)
for pat in 'dependents: Vec<TaskId>' '#[allow(dead_code)]' 'VecDeque' 'label: String'; do
  if grep -nF "$pat" <<<"$engine"; then
    echo "  '$pat' is back in non-test micsim engine.rs (dependents are one CSR array built at run; waiting FIFOs are threaded through the task table; tasks carry a Copy tag)"
    exit 1
  fi
done

echo "==> one edge layout (happens-before and task-graph edges are CSR, sorted once; tasks are tagged, lanes derived from geometry)"
if grep -rnF 'Vec<Vec<u32>>' crates/core/src/check/; then
  echo "  'Vec<Vec<u32>>' is back under crates/core/src/check/ (HbEdges keeps preds/succs as offsets plus one list)"
  exit 1
fi
if nontest crates/core/src/sched/graph.rs | grep -nE 'Vec<Vec<usize>>|HashSet|BinaryHeap'; then
  echo "  non-test sched/graph.rs keeps edge lists of its own again (TaskGraph keeps preds/succs in check::hb's Csr)"
  exit 1
fi
if grep -rn 'fn topo_order' crates/core/src | grep -v '^crates/core/src/check/hb.rs:'; then
  echo "  a second topological sort is back (HbGraph's order is the one; TaskGraph keeps it restricted to its nodes)"
  exit 1
fi
if nontest crates/core/src/trace.rs | grep -nE 'BTreeMap<ResourceId, String>' | grep -v 'fn names'; then
  echo "  non-test trace.rs stores lane names again (LaneMap derives a name from the geometry when asked)"
  exit 1
fi

echo "==> one fault policy (a fault never switches the loss policy or the scheduler; recovery re-plans, it builds no program)"
if grep -rn 'isolate_partitions' crates; then
  echo "  'isolate_partitions' is back under crates/ (there is one loss policy, with or without a fault plan)"
  exit 1
fi
if grep -nE 'build_replay_program|cfg\.fault = None' crates/core/src/context.rs; then
  echo "  context.rs builds a replay program or turns the fault plan off for recovery (re-plan the lost nodes through drive)"
  exit 1
fi
if nontest crates/core/src/executor/sim.rs | grep -nE 'fault.*SchedulerKind::Fifo|SchedulerKind::Fifo.*fault'; then
  echo "  non-test executor/sim.rs falls back to FIFO under a fault plan (faults keep the schedule)"
  exit 1
fi
if nontest crates/core/src/executor/native.rs | grep -nF 'fault.is_none()'; then
  echo "  non-test executor/native.rs branches on a missing fault plan (faults keep the schedule)"
  exit 1
fi

echo "==> a run returns what it produced (no side-channel slots on the context; one fault plan, one retry policy)"
if grep -rnE 'take_(native_trace|recovery_state|check_report|opt_report)|run_sim_faulted|store_(recovery|native_trace)' \
     crates tests examples src README.md; then
  echo "  a run's output is handed out through the context again (return it from the run, or carry it in Error::Run)"
  exit 1
fi
if grep -rn 'RetryPolicy' crates tests examples src README.md | grep -v '^crates/core/src/' \
   || tr '\n' ' ' <crates/core/src/lib.rs | grep -oE 'pub use [^;]*;' | grep -F 'RetryPolicy'; then
  echo "  'RetryPolicy' is a knob again (the retry policy is a crate-private constant of crates/core)"
  exit 1
fi
if sed -n '/^pub struct Context {/,/^}/p' crates/core/src/context.rs | grep -nF 'Mutex'; then
  echo "  struct Context holds a Mutex field again (a run's outputs come back from the call)"
  exit 1
fi
if nontest crates/core/src/context.rs | grep -nF '.set_fault_plan('; then
  echo "  non-test context.rs changes the fault plan (recovery keeps the plan live; only callers set it)"
  exit 1
fi

echo "==> one telemetry spine (metrics are a value priced from a finished run: no concurrent registry, no context switch)"
for f in crates/core/src/metrics/*.rs; do
  if nontest "$f" | grep -nE 'Atomic|Arc<|Mutex'; then
    echo "  $f records concurrently again (a MetricsSnapshot is written from &mut self)"
    exit 1
  fi
done
if grep -rnE 'MetricsRegistry|HistCell|RunInstruments|metrics_enabled' crates tests examples src README.md; then
  echo "  the instrument registry or the context's metrics switch is back (price a MetricsSnapshot from the finished run)"
  exit 1
fi

echo "==> one geometry (the context owns one partition plan every card shares; the recorder derives its counters at join)"
if grep -rnE 'SimPlatform|FabricError|MemError|micsim::(fabric|memory)|Error::Platform' \
     crates tests examples src README.md; then
  echo "  micsim's per-card platform state or its errors are back (the context holds one PartitionPlan)"
  exit 1
fi
if nontest crates/core/src/trace.rs | grep -nF 'Atomic'; then
  echo "  non-test trace.rs counts while a run is live again (derive the counter from the spans in Recorder::join)"
  exit 1
fi

echo "==> one SIMD dispatch (the CF tile kernels' dispatch fn run holds every feature check; one target_feature wrapper per vector tier)"
simd=$(grep -rlE 'is_x86_feature_detected!|#\[target_feature' --include='*.rs' \
         crates shims src tests examples bench/e2e/src | sort -u)
if [ "$simd" != "crates/apps/src/cholesky.rs" ]; then
  echo "  a feature check or target_feature fn outside crates/apps/src/cholesky.rs: $(echo $simd)"
  exit 1
fi
checks=$(nontest crates/apps/src/cholesky.rs | grep -cF 'is_x86_feature_detected!' || true)
in_run=$(nontest crates/apps/src/cholesky.rs | sed -n '/^fn run(/,/^}/p' | grep -cF 'is_x86_feature_detected!' || true)
if [ "$in_run" -eq 0 ] || [ "$checks" -ne "$in_run" ]; then
  echo "  $checks feature checks in non-test cholesky.rs, $in_run of them in fn run (the one dispatch point holds them all)"
  exit 1
fi
wrappers=$(nontest crates/apps/src/cholesky.rs | grep -cF '#[target_feature' || true)
if [ "$wrappers" -ne 2 ]; then
  echo "  $wrappers target_feature fns in non-test cholesky.rs (one wrapper per vector tier: AVX-512F, AVX2+FMA)"
  exit 1
fi

echo "==> hstreams is the runtime (partition leasing lives in stream-serve; the core's public surface only shrinks)"
if grep -rn 'struct LeaseTable' crates/core/; then
  echo "  'struct LeaseTable' is back under crates/core/ (leasing is the service's: stream_serve::lease)"
  exit 1
fi
# `pub fn` and `pub mod` lines of non-test crates/core/src code. Lower the
# bound when the surface shrinks; never raise it.
surface_max=219
surface=$(find crates/core/src -name '*.rs' | sort | while read -r f; do
            nontest "$f"
          done | { grep -cE '^[[:space:]]*pub (fn|mod)[[:space:]]' || true; })
if [ "$surface" -gt "$surface_max" ]; then
  echo "  $surface 'pub fn'/'pub mod' lines in non-test crates/core/src (at most $surface_max): make the new item pub(crate), or move it out of the runtime"
  exit 1
fi

echo "==> every gate is a test (no mic-bench binary or figure function decides pass/fail; no JSON parser)"
if grep -nE -- '--[q]uick|process::exit' crates/bench/src/*.rs crates/bench/src/bin/*.rs; then
  echo "  mic-bench has a gate mode or a failing exit (move the check into a test)"
  exit 1
fi
if [ -e crates/bench/src/json.rs ]; then
  echo "  crates/bench/src/json.rs is back (check SARIF structurally, as tests/check_golden.rs does)"
  exit 1
fi

echo "==> one sweep per figure (simulator sweeps live in mic_bench::figures; its bin/ holds the figures printer and the five report binaries)"
bins=$(cd crates/bench/src/bin && LC_ALL=C ls)
expected=$(printf '%s\n' autotune.rs bench_sched.rs chaos.rs figures.rs native_overlap_study.rs native_vs_sim_trace.rs)
if [ "$bins" != "$expected" ]; then
  echo "  crates/bench/src/bin/ holds:"
  echo "$bins" | sed 's/^/    /'
  echo "  expected only: $(echo $expected)"
  echo "  (a figure or table is a function of mic_bench::figures, printed by the figures binary)"
  exit 1
fi

echo "==> one recorder per app pipeline (tunables record through the app modules; one build-then-simulate path; one stencil halo)"
if nontest crates/apps/src/tunable.rs | grep -nE '\.(h2d|d2h|kernel)\('; then
  echo "  non-test crates/apps/src/tunable.rs records actions itself (call the app module's recorder: hbench::record_tiles, mm::record, ...)"
  exit 1
fi
if grep -rn 'fn simulate' crates/apps/src; then
  echo "  a per-app simulate is back under crates/apps/src (the figures build and simulate in one place, mic_bench::figures' makespan)"
  exit 1
fi
halos=$(grep -rnE '^[[:space:]]*(pub(\([a-z]+\))? )?has_above:[[:space:]]*bool' crates/apps/src || true)
if [ "$(printf '%s' "$halos" | grep -c . || true)" -gt 1 ]; then
  echo "$halos" | sed 's/^/  /'
  echo "  more than one struct declares has_above (the row-tile halo is util::RowTile)"
  exit 1
fi

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> build examples"
cargo build --release --examples

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> every test target, debug and release (the kernel row-split bug failed differently per profile)"
cargo test --workspace
cargo test --workspace --release

echo "==> one-CPU wait path (native_stress and the executor::native lib tests on one core, the only place a waiting driver yields before it parks)"
if command -v taskset >/dev/null; then
  # The first CPU this shell may run on.
  cpu=$(taskset -pc $$ | sed 's/.*: *//; s/[-,].*//')
  taskset -c "$cpu" cargo test --release -p hstreams --test native_stress
  taskset -c "$cpu" cargo test --release -p hstreams --lib executor::native
else
  echo "  taskset not found: one-CPU step skipped"
fi

echo "==> performance ledger: mic-e2e unit tests + self-test"
cargo test --offline --manifest-path bench/e2e/Cargo.toml
bash bench/e2e/run.sh --self-test

echo "==> allocation budgets (a simulated run allocates per run, a recorded candidate per tiling, a native launch nothing; counts in the log)"
cargo test --release --test sim_alloc_budget --test native_alloc_budget -- --nocapture

echo "==> simulator ledger (sim_sweep's makespans and exact counts equal the committed baseline, bit for bit)"
bash bench/e2e/run.sh --workload sim_sweep --seed 1 --seconds 3 --trace 1 2>/dev/null \
  | python3 scripts/sim_exact.py bench/e2e/baseline/baseline.json sim_sweep \
      sim.makespan_ms.hbench sim.makespan_ms.mm sim.makespan_ms.cf sim.makespan_ms.nn \
      sim.makespan_ms.kmeans sim_makespan_ms tune.candidates_per_sweep tune.evaluator_calls \
      micsim.tasks_per_sweep hstreams.actions_per_op hstreams.bytes_per_op

echo "==> native ledger (dispatch_tiny executes every action and moves every byte of the committed baseline; counters only, no wall-clock gate)"
bash bench/e2e/run.sh --workload dispatch_tiny --seed 1 --seconds 3 --trace 1 2>/dev/null \
  | python3 scripts/sim_exact.py bench/e2e/baseline/baseline.json dispatch_tiny \
      hstreams.actions_per_op hstreams.bytes_per_op

echo "verify: OK"
