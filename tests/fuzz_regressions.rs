//! Differential-fuzzing gates, and minimized reproducers of past findings.
//!
//! * **Corpus replay** — every committed genome under `crates/fuzz/corpus/`
//!   runs through the full oracle stack and must agree; a disagreement is
//!   reported by file name with its shrunk genome.
//! * **Two sessions** — two identical fuzzing sessions seeded from the
//!   shared generators plus the six tunable apps must evolve identically
//!   (same [`Fuzzer::evolution_hash`]), find no disagreement and light at
//!   least four signal families. A finding's shrunk genome is printed
//!   ready to commit here.
//! * **Reproducers** — each constant below is a genome
//!   (`stream_fuzz::ProgramSpec` text format) the fuzzer shrank from an
//!   oracle disagreement. After the underlying bug is fixed the case stays
//!   here forever: the test replays it through the **full** oracle stack
//!   and fails on any disagreement, so the bug cannot quietly return.

use mic_streams::apps::tunable::{
    Tunable, TunableCf, TunableHbench, TunableKmeans, TunableMm, TunableNn, TunablePartitionMicro,
};
use mic_streams::fuzz::{shrink, CaseOutcome, Fuzzer, FuzzerConfig, Harness, ProgramSpec};
use mic_streams::hstreams::check::{analyze, CheckCode, CheckEnv};
use mic_streams::hstreams::context::Context;
use mic_streams::hstreams::testutil::{build_chained, build_synced};
use mic_streams::hstreams::SchedulerKind;
use mic_streams::micsim::PlatformConfig;

/// Parse a committed genome, repair it, and run the full differential
/// case (checker + sim ×2 + native ×2 + reference interpreter).
fn replay(text: &str) -> CaseOutcome {
    let mut spec = ProgramSpec::parse(text).expect("committed genome must parse");
    spec.repair();
    Harness::new().run_case(&spec, true)
}

/// Found 2026-08-07 by a fuzzing session (ops `add-lane`/`add-wait`, shrunk
/// from a 4-lane mutant): five unordered racing pairs pile onto device
/// buffer 1, overflowing `MAX_RACES_PER_GROUP`. The checker's overflow
/// summary diagnostic carried `code: Race` with **no partner site**, so
/// the hazard witness degenerated to the pair `a / a` and its two
/// schedules could not bracket anything (`witness-order-invalid`).
/// Fixed by making the summary name a representative unlisted pair.
const RACE_OVERFLOW_SUMMARY: &str = "\
streamfuzz v1
partitions 2
scheduler fifo
placements 0 1 0
lane k dev 1 r 1 w 2
lane h2d 1 ; k dev 1 r 0 w 1
lane h2d 1
end
";

/// Found 2026-08-07 by the full-oracle determinism test (op
/// `toggle-host` on a `build_synced` capture): `panic_kernel_at` aimed at
/// a **host** kernel was injected by the native executor (which checks
/// the plan for every kernel) but silently skipped by the simulator,
/// whose host-kernel arm never consulted the fault plan — sim reported
/// success while native reported `KernelPanicked`. Fixed by injecting in
/// the sim's host arm too (as `KernelPanicked`: no partition to lose).
const HOST_KERNEL_PANIC_INJECTION: &str = "\
streamfuzz v1
partitions 1
scheduler fifo
placements 0
lane h2d 12 ; k host 2 r 12 w 13
fault 7 1 panic 0 1
end
";

#[test]
fn injected_host_kernel_panic_fells_both_executors() {
    let out = replay(HOST_KERNEL_PANIC_INJECTION);
    assert!(!out.rejected, "the program itself is clean");
    assert!(
        out.disagreement.is_none(),
        "regressed: {:?}",
        out.disagreement
    );
    assert!(
        out.signals.contains("fault:sim:kernel-panicked"),
        "the sim must observe the injected panic, got {:?}",
        out.signals
    );
}

#[test]
fn race_overflow_summary_still_witnesses_a_real_pair() {
    let out = replay(RACE_OVERFLOW_SUMMARY);
    assert!(out.rejected, "the racy pile-up must be rejected");
    assert!(
        out.disagreement.is_none(),
        "regressed: {:?}",
        out.disagreement
    );
    assert!(
        out.signals.iter().any(|s| s.starts_with("witness:race-")),
        "the first race error must produce a bracketing witness, got {:?}",
        out.signals
    );
}

/// The checker-level face of the same bug: every `Race` diagnostic —
/// overflow summaries included — must name at least one partner site,
/// because the witness builder schedules the claimed pair both ways.
#[test]
fn every_race_diagnostic_names_a_partner_site() {
    let mut spec = ProgramSpec::parse(RACE_OVERFLOW_SUMMARY).unwrap();
    spec.repair();
    let program = spec.to_program();
    let env = CheckEnv::permissive(&program);
    let analysis = analyze(&program, &env);
    let mut races = 0;
    for d in analysis.report.errors() {
        if d.code == CheckCode::Race {
            races += 1;
            assert!(
                !d.related.is_empty(),
                "pair-less race diagnostic: {}",
                d.message
            );
        }
    }
    assert!(races > 4, "the genome must overflow the per-group race cap");
}

/// The committed corpus: agreeing genomes worth replaying forever.
const CORPUS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/fuzz/corpus");

/// `(file name, text)` of every committed `*.txt` genome, by name.
fn committed_corpus() -> Vec<(String, String)> {
    let mut paths: Vec<_> = std::fs::read_dir(CORPUS)
        .unwrap_or_else(|e| panic!("corpus directory {CORPUS}: {e}"))
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p)
                .unwrap_or_else(|e| panic!("unreadable corpus file {name}: {e}"));
            (name, text)
        })
        .collect()
}

#[test]
fn committed_corpus_replays_without_disagreement() {
    let corpus = committed_corpus();
    // The corpus README lists one table row per committed genome.
    let readme = std::fs::read_to_string(format!("{CORPUS}/README.md")).expect("corpus README");
    let listed = readme
        .lines()
        .filter(|l| l.starts_with("| `") && l.contains(".txt`"))
        .count();
    assert!(listed >= 5, "the corpus README lists {listed} genomes");
    assert_eq!(
        corpus.len(),
        listed,
        "replayed {} genomes, the corpus README lists {listed}",
        corpus.len()
    );

    let mut harness = Harness::new();
    let mut bad = Vec::new();
    for (name, text) in &corpus {
        let mut spec = ProgramSpec::parse(text)
            .unwrap_or_else(|e| panic!("corpus file {name} does not parse: {e}"));
        spec.repair();
        if let Some(d) = harness.run_case(&spec, true).disagreement {
            let min = shrink(&mut harness, &spec, &d.class, true);
            bad.push(format!(
                "{name}: {} — {}\n--- shrunk genome (ready to commit) ---\n{}---",
                d.class,
                d.detail,
                min.to_text()
            ));
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

/// Master seed of the fuzzing sessions, fixed so failures reproduce.
const SEED: u64 = 0xf022;

/// `app` recorded at the parity geometry `(P=2, T=4)` as a genome.
fn capture(app: &mut dyn Tunable, scheduler: SchedulerKind) -> ProgramSpec {
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(2)
        .build()
        .expect("parity context");
    assert!(app.feasible(4), "{} infeasible at T=4", app.name());
    app.record(&mut ctx, 4)
        .unwrap_or_else(|e| panic!("{} failed to record: {e}", app.name()));
    ProgramSpec::from_program(ctx.program(), scheduler)
}

/// A full-oracle fuzzer seeded from the generators, then from the six
/// apps under a rotating scheduler.
fn seeded_fuzzer() -> Fuzzer {
    let mut f = Fuzzer::new(FuzzerConfig {
        seed: SEED,
        full_oracles: true,
        serve_oracle: true,
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
    let apps: Vec<Box<dyn Tunable>> = vec![
        Box::new(TunableHbench::new(1 << 10, 2, Some(7))),
        Box::new(TunableMm::new(32, Some(7))),
        Box::new(TunableCf::new(32, Some(7))),
        Box::new(TunableNn::new(1 << 10, Some(7))),
        Box::new(TunableKmeans::new(1 << 10, 8, 2, Some(7))),
        Box::new(TunablePartitionMicro::new(1 << 10, 2)),
    ];
    let kinds = SchedulerKind::all();
    for (i, mut app) in apps.into_iter().enumerate() {
        let spec = capture(app.as_mut(), kinds[i % kinds.len()]);
        f.add_seed(app.name(), spec);
    }
    f
}

/// Two identical sessions of `budget` mutations: the evolution hashes
/// must match bit for bit (no wall clock, map order or address hashing
/// leaks into the loop), nothing may disagree, and the corpus must light
/// at least four signal families.
fn two_sessions_agree(budget: usize) {
    let mut a = seeded_fuzzer();
    a.run(budget);
    let mut b = seeded_fuzzer();
    b.run(budget);
    assert_eq!(
        a.evolution_hash(),
        b.evolution_hash(),
        "the two sessions diverged: fuzzing is not deterministic"
    );
    // Printed (`-- --nocapture`) so two commits can be compared session
    // for session.
    eprintln!(
        "evolution_hash(seed {SEED:#x}, budget {budget}) = {:#018x}",
        a.evolution_hash()
    );
    let findings: Vec<String> = a
        .findings()
        .iter()
        .chain(b.findings())
        .map(|f| {
            format!(
                "[{}] via {}: {}\n--- minimized genome (ready to commit here) ---\n{}---",
                f.class, f.op, f.detail, f.text
            )
        })
        .collect();
    assert!(findings.is_empty(), "{}", findings.join("\n"));
    let families = a.families();
    assert!(
        families.len() >= 4,
        "only {} signal families lit (need ≥ 4): {families:?}",
        families.len()
    );
}

#[test]
fn two_seeded_sessions_evolve_identically_and_agree() {
    two_sessions_agree(160);
}

/// The deep session: `cargo test --release --test fuzz_regressions --
/// --ignored`.
#[test]
#[ignore = "deep fuzzing session, minutes in debug"]
fn two_deep_sessions_evolve_identically_and_agree() {
    two_sessions_agree(20_000);
}
