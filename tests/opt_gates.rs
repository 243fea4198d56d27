//! Optimizer gates: sync elision must be exact and the static cost bound
//! must be sound, across the six tunable apps.
//!
//! 1. **Zero false elisions** — every elision on a catalog app carries a
//!    holding equivalence certificate, and optimization is a *fixpoint*:
//!    re-optimizing the optimized program returns it byte-identical with
//!    nothing further elided. (Three of the six apps — mm, cf, kmeans —
//!    genuinely over-synchronize as recorded: dead `record`s and one
//!    collapsible barrier. The already-minimal apps must come back
//!    byte-identical on the first pass.)
//! 2. **Injected redundancy recovered** — duplicating every `WaitEvent`
//!    (or, for the barrier-separated apps with no waits, appending dead
//!    `RecordEvent`s) must be undone: ≥ 90 % of the injected syncs elided
//!    on top of the app's intrinsic ones, and the optimized program's
//!    native outputs bit-identical to the pristine program's.
//! 3. **Sound static bound, winner-preserving pruning** — (a) for every
//!    feasible `(P, T)` candidate of every app the static makespan lower
//!    bound is ≤ the simulator's measured makespan; (b) an exhaustive tune
//!    with bound-pruning on returns the same winner at the same cost as one
//!    with it off, while actually pruning candidates.

use mic_streams::apps::tunable::{
    Tunable, TunableCf, TunableHbench, TunableKmeans, TunableMm, TunableNn, TunablePartitionMicro,
};
use mic_streams::apps::workload::catalog;
use mic_streams::hstreams::action::Action;
use mic_streams::hstreams::context::Context;
use mic_streams::hstreams::opt::optimize;
use mic_streams::hstreams::program::Program;
use mic_streams::hstreams::types::StreamId;
use mic_streams::hstreams::Certificate;
use mic_streams::micsim::PlatformConfig;
use mic_streams::serve::TenantProgram;
use mic_streams::tune::evaluator::{Evaluator, SimEvaluator};
use mic_streams::tune::tuner::{RepeatPolicy, Strategy, Tuner};
use mic_streams::tune::TuneBounds;

/// Catalog seed of the captures.
const SEED: u64 = 0x0b7;

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

#[test]
fn elision_is_a_certified_fixpoint_that_recovers_injected_syncs_on_every_catalog_app() {
    let platform = PlatformConfig::phi_31sp();
    for mut w in catalog(SEED) {
        let name = w.name.clone();
        let prog = TenantProgram::capture(&mut w, &platform)
            .unwrap_or_else(|e| panic!("{name}: capture failed: {e}"));
        let env = ctx_for(&prog).check_env();

        // Gate 1: every elision is certified, and optimization is a
        // fixpoint. For the already-minimal apps the first pass IS the
        // fixpoint check.
        let pristine = optimize(&prog.program, &env);
        let pristine_elided = pristine.report.elided_actions();
        assert!(
            pristine
                .report
                .certificate
                .as_ref()
                .is_some_and(Certificate::holds),
            "{name}: elision without a holding certificate"
        );
        let again = optimize(&pristine.program, &env);
        assert_eq!(
            again.report.elided_actions(),
            0,
            "{name}: re-optimizing elided more"
        );
        assert_eq!(
            format!("{:?}", again.program),
            format!("{:?}", pristine.program),
            "{name}: optimization is not a fixpoint"
        );
        if pristine_elided == 0 {
            assert_eq!(
                format!("{:?}", pristine.program),
                format!("{:?}", prog.program),
                "{name}: nothing elided, yet the program changed"
            );
        }

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
        assert!(
            recovered * 10 >= injected * 9,
            "{name}: only {recovered}/{injected} injected syncs recovered"
        );
        assert!(
            native_output_bits(&prog, &prog.program)
                == native_output_bits(&prog, &recovered_opt.program),
            "{name}: elision changed native outputs"
        );
    }
}

#[test]
fn static_bound_never_exceeds_the_simulated_makespan() {
    let platform = PlatformConfig::phi_31sp();
    let apps: Vec<Box<dyn Tunable>> = vec![
        Box::new(TunableHbench::new(1 << 10, 2, None)),
        Box::new(TunableMm::new(32, None)),
        Box::new(TunableCf::new(32, None)),
        Box::new(TunableNn::new(1 << 10, None)),
        Box::new(TunableKmeans::new(1 << 10, 8, 2, None)),
        Box::new(TunablePartitionMicro::new(1 << 10, 2)),
    ];
    let mut candidates = 0usize;
    for mut app in apps {
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
                assert!(
                    lb <= m.seconds,
                    "{} (P={p}, T={t}): bound {lb:.9} > measured {:.9}",
                    app.name(),
                    m.seconds
                );
            }
        }
    }
    assert!(candidates > 0, "no candidate was priced");
}

#[test]
fn bound_pruning_keeps_the_exhaustive_winner() {
    // The small hBench is overhead-dominated: its winner is the first
    // candidate visited, so only the paper-scale one, whose winner sits
    // deep in the grid, shows that pruning never discards a winner.
    for (elems, iters, max_tiles) in [(1 << 14, 4, 8), (1 << 14, 4, 16), (1 << 22, 24, 16)] {
        let platform = PlatformConfig::phi_31sp();
        let bounds = TuneBounds {
            max_partitions: 8,
            max_tiles,
            max_multiple: 2,
        };
        let tune_once = |pruning: bool| {
            // Fresh app + evaluator per pass: a Tunable binds its buffers
            // to the first context it records into.
            let mut app = TunableHbench::new(elems, iters, None);
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
        let case = format!("hbench {elems}x{iters}, T <= {max_tiles}");
        assert_eq!(
            pruned.winner, plain.winner,
            "{case}: bound pruning moved the winner"
        );
        assert_eq!(pruned.winner_seconds, plain.winner_seconds, "{case}");
        assert!(
            pruned.pruned_by_bound > 0,
            "{case}: bound pruning never fired on the {}-candidate grid",
            pruned.grid_size
        );
    }
}
