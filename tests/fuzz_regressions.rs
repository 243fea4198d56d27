//! Minimized reproducers from differential-fuzzing findings.
//!
//! Each constant below is a genome (`stream_fuzz::ProgramSpec` text
//! format) that `fuzz_smoke` shrank from a three-oracle disagreement.
//! After the underlying bug is fixed the case stays here forever: the
//! test replays it through the **full** oracle stack and fails on any
//! disagreement, so the bug cannot quietly return. New findings printed
//! by `fuzz_smoke` get appended as new named constants + tests.

use mic_streams::fuzz::{CaseOutcome, Harness, ProgramSpec};
use mic_streams::hstreams::check::{analyze, CheckCode, CheckEnv};

/// Parse a committed genome, repair it, and run the full differential
/// case (checker + sim ×2 + native ×2 + reference interpreter).
fn replay(text: &str) -> CaseOutcome {
    let mut spec = ProgramSpec::parse(text).expect("committed genome must parse");
    spec.repair();
    Harness::new().run_case(&spec, true)
}

/// Found 2026-08-07 by `fuzz_smoke` (ops `add-lane`/`add-wait`, shrunk
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
