//! Optimizer gate: sync elision must be exact and the static cost bound
//! must be sound, across the six tunable apps.
//!
//! Three acceptance gates, enforced in both modes (`--quick` is the same
//! payload minus the larger tuner grid; wired into `scripts/verify.sh`):
//!
//! 1. **Zero false elisions** — every elision on a catalog app carries a
//!    holding equivalence certificate, and optimization is a *fixpoint*:
//!    re-optimizing the optimized program returns it byte-identical with
//!    nothing further elided. (Three of the six apps — mm, cf, kmeans —
//!    genuinely over-synchronize as recorded: dead `record`s and one
//!    collapsible barrier; the audit reports those counts. The already-
//!    minimal apps must come back byte-identical on the first pass.)
//! 2. **Injected redundancy recovered** — duplicating every `WaitEvent`
//!    (or, for the barrier-separated apps with no waits, appending dead
//!    `RecordEvent`s) must be undone: ≥ 90 % of the injected syncs
//!    elided on top of the app's intrinsic ones, and the optimized
//!    program's native outputs bit-identical to the pristine program's.
//! 3. **Sound static bound, winner-preserving pruning** — for every
//!    `(P, T)` candidate of every app, the static makespan lower bound
//!    is ≤ the simulator's measured makespan; an exhaustive tune with
//!    bound-pruning on returns the same winner at the same cost as one
//!    with it off, while actually pruning candidates.
//!
//! Exits non-zero if any gate fails.

use hstreams::action::Action;
use hstreams::context::Context;
use hstreams::opt::optimize;
use hstreams::program::Program;
use hstreams::types::StreamId;
use mic_apps::tunable::{
    Tunable, TunableCf, TunableHbench, TunableKmeans, TunableMm, TunableNn, TunablePartitionMicro,
};
use mic_apps::workload::catalog;
use micsim::PlatformConfig;
use stream_serve::TenantProgram;
use stream_tune::evaluator::{Evaluator, SimEvaluator};
use stream_tune::tuner::{RepeatPolicy, Strategy, Tuner};
use stream_tune::TuneBounds;

/// Seed shared with the serve benches so captures are comparable.
const SEED: u64 = 0x0b7;

/// One catalog app's elision audit.
struct AppAudit {
    name: String,
    actions: usize,
    /// Optimizer wall time on the pristine capture, microseconds.
    opt_us: u64,
    /// Intrinsic redundant syncs the app records (certified elisions).
    pristine_elided: usize,
    /// Certificate held on the pristine pass, and re-optimizing the
    /// optimized output was a byte-identical no-op (gate: true).
    fixpoint: bool,
    /// Redundant syncs injected on top of the capture.
    injected: usize,
    /// Elisions on the oversynced program beyond the intrinsic ones
    /// (gate: ≥ 90 % of `injected`).
    recovered: usize,
    /// Native outputs of the optimized oversynced program match the
    /// pristine program's bit-for-bit (gate: true).
    native_identical: bool,
}

/// Fresh context at the capture's geometry, buffers allocated and host
/// state restored.
fn ctx_for(prog: &TenantProgram) -> Context {
    let spp = prog.program.streams.len() / prog.partitions.max(1);
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(prog.partitions)
        .streams_per_partition(spp.max(1))
        .build()
        .expect("capture geometry is within platform limits");
    for b in &prog.buffers {
        let id = ctx.alloc(b.name.clone(), b.len);
        if !b.host.is_empty() {
            ctx.write_host(id, &b.host)
                .expect("captured host state fits");
        }
    }
    ctx
}

/// Run `program` natively from the capture's initial state and read back
/// the output buffers as bits.
fn native_output_bits(prog: &TenantProgram, program: &Program) -> Vec<Vec<u32>> {
    let mut ctx = ctx_for(prog);
    ctx.install_program(program.clone())
        .expect("captured program installs");
    ctx.run_native().expect("captured program runs natively");
    prog.outputs
        .iter()
        .map(|&b| {
            ctx.read_host(b)
                .expect("output readback")
                .into_iter()
                .map(f32::to_bits)
                .collect()
        })
        .collect()
}

/// Duplicate every `WaitEvent` in place (each duplicate is redundant by
/// construction); if the program has no waits, append one dead
/// `RecordEvent` per stream instead. Returns the injected count.
fn inject_redundancy(p: &mut Program) -> usize {
    let mut injected = 0usize;
    for si in 0..p.streams.len() {
        let mut ai = 0;
        while ai < p.streams[si].actions.len() {
            if let Action::WaitEvent(e) = p.streams[si].actions[ai] {
                p.insert_action(StreamId(si), ai + 1, Action::WaitEvent(e));
                injected += 1;
                ai += 2;
            } else {
                ai += 1;
            }
        }
    }
    if injected == 0 {
        for si in 0..p.streams.len() {
            let end = p.streams[si].actions.len();
            p.insert_record_event(StreamId(si), end);
            injected += 1;
        }
    }
    injected
}

fn audit_app(prog: &TenantProgram, name: &str) -> AppAudit {
    let env = ctx_for(prog).check_env();

    // Gate 1: every elision is certified, and optimization is a fixpoint
    // — the minimal form comes back byte-identical with nothing further
    // removed. For the already-minimal apps the first pass IS the
    // fixpoint check.
    let pristine = optimize(&prog.program, &env);
    let pristine_elided = pristine.report.elided_actions();
    let cert_ok = pristine
        .report
        .certificate
        .as_ref()
        .is_some_and(hstreams::Certificate::holds);
    let again = optimize(&pristine.program, &env);
    let fixpoint = cert_ok
        && again.report.elided_actions() == 0
        && format!("{:?}", again.program) == format!("{:?}", pristine.program)
        && (pristine_elided > 0
            || format!("{:?}", pristine.program) == format!("{:?}", prog.program));

    // Gate 2: injected redundancy is recovered, outputs untouched. The
    // native comparison pits the optimized oversynced program against
    // the pristine capture — elision must also absorb the app's own
    // redundancies without moving a bit.
    let mut oversynced = prog.program.clone();
    let injected = inject_redundancy(&mut oversynced);
    let recovered_opt = optimize(&oversynced, &env);
    let recovered = recovered_opt
        .report
        .elided_actions()
        .saturating_sub(pristine_elided);
    let base_bits = native_output_bits(prog, &prog.program);
    let opt_bits = native_output_bits(prog, &recovered_opt.program);

    AppAudit {
        name: name.to_string(),
        actions: prog.program.action_count(),
        opt_us: pristine.report.elapsed_us,
        pristine_elided,
        fixpoint,
        injected,
        recovered,
        native_identical: base_bits == opt_bits,
    }
}

/// The six apps at the fuzz-smoke problem sizes, for the bound sweep.
fn bound_apps() -> Vec<Box<dyn Tunable>> {
    vec![
        Box::new(TunableHbench::new(1 << 10, 2, None)),
        Box::new(TunableMm::new(32, None)),
        Box::new(TunableCf::new(32, None)),
        Box::new(TunableNn::new(1 << 10, None)),
        Box::new(TunableKmeans::new(1 << 10, 8, 2, None)),
        Box::new(TunablePartitionMicro::new(1 << 10, 2)),
    ]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let platform = PlatformConfig::phi_31sp();
    let mut failures: Vec<String> = Vec::new();

    // ---- gates 1 & 2: elision exactness on the six catalog apps --------
    for mut w in catalog(SEED) {
        let name = w.name.clone();
        let prog = TenantProgram::capture(&mut w, &platform)
            .unwrap_or_else(|e| panic!("{name}: capture failed: {e}"));
        let a = audit_app(&prog, &name);
        println!(
            "{:<16} {:>3} actions | intrinsic elided {} fixpoint {} | injected {} recovered {} | native identical {} | {} µs",
            a.name, a.actions, a.pristine_elided, a.fixpoint, a.injected,
            a.recovered, a.native_identical, a.opt_us
        );
        if !a.fixpoint {
            failures.push(format!(
                "{}: uncertified elision or non-fixpoint optimization",
                a.name
            ));
        }
        if a.recovered * 10 < a.injected * 9 {
            failures.push(format!(
                "{}: only {}/{} injected syncs recovered",
                a.name, a.recovered, a.injected
            ));
        }
        if !a.native_identical {
            failures.push(format!("{}: elision changed native outputs", a.name));
        }
    }

    // ---- gate 3a: the static bound is sound on every candidate ---------
    let mut candidates = 0usize;
    let mut violations = 0usize;
    let mut min_gap = f64::INFINITY;
    let mut max_gap = f64::NEG_INFINITY;
    for mut app in bound_apps() {
        let mut eval = SimEvaluator::new(platform.clone()).expect("sim evaluator");
        for p in [1usize, 2, 4] {
            for t in 1..=8usize {
                if !app.feasible(t) {
                    continue;
                }
                let Some(m) = eval.evaluate(app.as_mut(), p, t) else {
                    continue;
                };
                let Some(lb) = eval.lower_bound(app.as_mut(), p, t) else {
                    continue;
                };
                candidates += 1;
                if lb > m.seconds {
                    violations += 1;
                    eprintln!(
                        "UNSOUND: {} (P={p}, T={t}): bound {lb:.9} > measured {:.9}",
                        app.name(),
                        m.seconds
                    );
                }
                let gap = (m.seconds - lb) / m.seconds;
                min_gap = min_gap.min(gap);
                max_gap = max_gap.max(gap);
            }
        }
    }
    println!(
        "static bound: {candidates} candidates, {violations} violation(s), gap {:.1}%..{:.1}%",
        100.0 * min_gap,
        100.0 * max_gap
    );
    if candidates == 0 || violations > 0 {
        failures.push(format!(
            "static bound unsound: {violations} violation(s) over {candidates} candidate(s)"
        ));
    }

    // ---- gate 3b: bound-pruned exhaustive tune preserves the winner -----
    let bounds = TuneBounds {
        max_partitions: 8,
        max_tiles: if quick { 8 } else { 16 },
        max_multiple: 2,
    };
    let tune_once = |pruning: bool| {
        // Fresh app + evaluator per pass: a Tunable binds its buffers to
        // the first context it records into.
        let mut app = TunableHbench::new(1 << 14, 4, None);
        let mut eval = SimEvaluator::new(platform.clone()).expect("sim evaluator");
        let mut tuner = Tuner::new(RepeatPolicy::sim());
        tuner.bound_pruning = pruning;
        tuner.tune(
            &mut app,
            &mut eval,
            &platform,
            &bounds,
            Strategy::Exhaustive,
        )
    };
    let plain = tune_once(false);
    let pruned = tune_once(true);
    let winner_preserved =
        plain.winner == pruned.winner && plain.winner_seconds == pruned.winner_seconds;
    println!(
        "tuner: winner ({}, {}) @ {:.6}s | pruned winner ({}, {}) @ {:.6}s | {} of {} candidates pruned by bound",
        plain.winner.0, plain.winner.1, plain.winner_seconds,
        pruned.winner.0, pruned.winner.1, pruned.winner_seconds,
        pruned.pruned_by_bound, pruned.grid_size
    );
    if !winner_preserved {
        failures.push("bound pruning changed the tuning winner".to_string());
    }
    if pruned.pruned_by_bound == 0 {
        failures.push("bound pruning never fired on the exhaustive grid".to_string());
    }

    if failures.is_empty() {
        println!("bench_opt: all gates pass");
    } else {
        for f in &failures {
            eprintln!("GATE FAIL: {f}");
        }
        std::process::exit(1);
    }
}
