//! Differential-fuzzing smoke gate: the four oracles must agree on
//! everything the fuzzer can generate, deterministically.
//!
//! Seeds the corpus from the shared test generators
//! ([`hstreams::testutil`]) plus the six tunable app builders recorded at
//! the parity geometry `(P=2, T=4)`, replays the committed corpus under
//! `crates/fuzz/corpus/`, then runs **two identical fuzzing sessions**
//! with a fixed execution budget and gates on:
//!
//! 1. **Determinism** — both sessions produce the same
//!    [`Fuzzer::evolution_hash`] (byte-identical corpus evolution);
//! 2. **Agreement** — zero four-oracle disagreements anywhere (replay or
//!    fuzzing); any finding's shrunk genome is printed ready to commit to
//!    `tests/fuzz_regressions.rs`;
//! 3. **Breadth** — the retained corpus lights up at least 4 signal
//!    families (checker diagnostics, overlap shapes, metrics catalog,
//!    fault counters, scheduler outcomes, witness verdicts, ...).
//!
//! `--quick` shrinks the mutation budget for CI (the budget, not a wall
//! clock, is the determinism boundary).

use std::time::Instant;

use hstreams::context::Context;
use hstreams::sched::SchedulerKind;
use hstreams::testutil::{build_chained, build_synced};
use mic_apps::tunable::{
    Tunable, TunableCf, TunableHbench, TunableKmeans, TunableMm, TunableNn, TunablePartitionMicro,
};
use micsim::PlatformConfig;
use stream_fuzz::{Fuzzer, FuzzerConfig, ProgramSpec};

/// Parity geometry shared with `tests/metrics_parity.rs`.
const PARTITIONS: usize = 2;
const TASKS: usize = 4;
/// Master seed for both sessions — fixed so CI failures reproduce locally.
const SEED: u64 = 0xf022;

/// The six apps at small native-runnable problem sizes, recorded once and
/// captured as genome skeletons.
fn apps() -> Vec<Box<dyn Tunable>> {
    vec![
        Box::new(TunableHbench::new(1 << 10, 2, Some(7))),
        Box::new(TunableMm::new(32, Some(7))),
        Box::new(TunableCf::new(32, Some(7))),
        Box::new(TunableNn::new(1 << 10, Some(7))),
        Box::new(TunableKmeans::new(1 << 10, 8, 2, Some(7))),
        Box::new(TunablePartitionMicro::new(1 << 10, 2)),
    ]
}

/// Record `app` at the parity geometry and capture the program's shape.
fn capture(app: &mut dyn Tunable, scheduler: SchedulerKind) -> ProgramSpec {
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(PARTITIONS)
        .metrics(true)
        .build()
        .expect("parity context");
    assert!(
        app.feasible(TASKS),
        "{} infeasible at T={TASKS}",
        app.name()
    );
    app.record(&mut ctx, TASKS)
        .unwrap_or_else(|e| panic!("{} failed to record: {e}", app.name()));
    ProgramSpec::from_program(ctx.program(), scheduler)
}

/// Seed a fresh fuzzer identically for both sessions: generator-built
/// skeletons first, then every app under a rotating scheduler.
fn seeded_fuzzer(full_oracles: bool) -> Fuzzer {
    let mut f = Fuzzer::new(FuzzerConfig {
        seed: SEED,
        full_oracles,
        shrink_findings: true,
        // Serve-mode rides the full-oracle tier: retained children are
        // interleaved with their parents as two service tenants and must
        // serve bit-identically to solo.
        serve_oracle: full_oracles,
        opt_oracle: true,
    });
    f.add_seed("minimal", ProgramSpec::minimal());
    f.add_seed(
        "synced3",
        ProgramSpec::from_program(
            &build_synced(3, &[(0, 0), (1, 1), (2, 0)]),
            SchedulerKind::Fifo,
        ),
    );
    f.add_seed(
        "chained",
        ProgramSpec::from_program(
            &build_chained(&[2, 2, 1], &[(0, 0), (1, 1)], 2, 12),
            SchedulerKind::WorkSteal,
        ),
    );
    let kinds = SchedulerKind::all();
    for (i, mut app) in apps().into_iter().enumerate() {
        let kind = kinds[i % kinds.len()];
        let spec = capture(app.as_mut(), kind);
        f.add_seed(app.name(), spec);
    }
    f
}

/// Replay every committed genome under `crates/fuzz/corpus/` through the
/// full oracle stack; returns `(replayed, disagreements)`.
fn replay_corpus(f: &mut Fuzzer) -> (usize, Vec<String>) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../fuzz/corpus");
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, Vec::new());
    };
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    paths.sort();
    let mut replayed = 0;
    let mut bad = Vec::new();
    for path in paths {
        let name = path
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("unreadable corpus file {name}: {e}"));
        let mut spec = ProgramSpec::parse(&text)
            .unwrap_or_else(|e| panic!("corpus file {name} does not parse: {e}"));
        spec.repair();
        let out = f.harness.run_case(&spec, true);
        replayed += 1;
        if let Some(d) = out.disagreement {
            bad.push(format!("{name}: {} — {}", d.class, d.detail));
        }
    }
    (replayed, bad)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let budget = args
        .iter()
        .position(|a| a == "--budget")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(if quick { 160 } else { 1200 });
    let started = Instant::now();

    // Replay the committed corpus through the full oracle stack first: a
    // regression that breaks an already-minimized genome fails loudly and
    // by name, before any mutation runs.
    let mut replayer = seeded_fuzzer(true);
    let (replayed, replay_bad) = replay_corpus(&mut replayer);

    // Two independent sessions, identical configuration: the evolution
    // hashes must match bit-for-bit or something nondeterministic leaked
    // into the loop (wall clock, map iteration order, address hashing).
    let mut a = seeded_fuzzer(true);
    a.run(budget);
    let mut b = seeded_fuzzer(true);
    b.run(budget);

    let elapsed = started.elapsed().as_secs_f64();
    let execs = replayer.execs() + a.execs() + b.execs();
    let execs_per_sec = execs as f64 / elapsed.max(1e-9);

    let deterministic = a.evolution_hash() == b.evolution_hash();
    let findings = a.findings().len() + b.findings().len() + replay_bad.len();
    let families = a.families();

    println!(
        "fuzz smoke: budget {budget} ×2 sessions + {replayed} corpus replays, {execs} execs in {elapsed:.2}s ({execs_per_sec:.0}/s)"
    );
    println!(
        "  corpus   : {} retained ({} seeds), {} distinct signals",
        a.corpus().len(),
        a.corpus().iter().filter(|e| e.parent.is_none()).count(),
        a.seen_signals().len()
    );
    println!("  families : {}", {
        let parts: Vec<String> = families.iter().map(|(k, v)| format!("{k}×{v}")).collect();
        parts.join("  ")
    });
    println!(
        "  evolution: {:016x} (session B: {:016x}, match: {deterministic})",
        a.evolution_hash(),
        b.evolution_hash()
    );
    println!("  findings : {findings}");

    for line in &replay_bad {
        eprintln!("REPLAY DISAGREEMENT {line}");
    }
    for f in a.findings().iter().chain(b.findings()) {
        eprintln!("FINDING [{}] via {}: {}", f.class, f.op, f.detail);
        eprintln!("--- minimized genome (commit to tests/fuzz_regressions.rs) ---");
        eprint!("{}", f.text);
        eprintln!("---");
    }

    let breadth_ok = families.len() >= 4;
    if !breadth_ok {
        eprintln!(
            "FAIL: only {} signal families lit (need ≥4)",
            families.len()
        );
    }
    if !deterministic {
        eprintln!("FAIL: the two sessions diverged — fuzzing is not deterministic");
    }
    if findings > 0 {
        eprintln!("FAIL: {findings} four-oracle disagreement(s)");
    }

    if !deterministic || findings > 0 || !breadth_ok {
        std::process::exit(1);
    }
}
