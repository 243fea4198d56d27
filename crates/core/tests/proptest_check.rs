//! Property test for the static analyzer: randomly generated
//! well-synchronized programs analyze clean, and knocking any single
//! `WaitEvent` out of one turns it into a program the analyzer rejects —
//! with a **demonstrable** claim. The race witness's two schedules are
//! executed through the reference interpreter and must produce different
//! bits (the misorder is observable, not just declared); a deadlock
//! witness must wedge the FIFO interpretation.
//!
//! The generator ([`build_synced`]) builds raw [`Program`]s rather than
//! recording through a `Context`: the recording API cannot express the
//! broken variants (its record-before-wait rule keeps API programs
//! cycle-free), and the point is to probe the analyzer's semantics, not
//! the builder's. It is shared with the scheduler proptest and the
//! differential fuzzer's seed corpus via [`hstreams::testutil`].

use hstreams::check::{analyze, CheckCode, CheckEnv, WitnessKind};
use hstreams::testutil::{build_synced, drop_one_wait, RefExec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn well_synced_programs_are_clean_until_a_wait_goes_missing(
        n_streams in 2usize..5,
        conflicts in proptest::collection::vec((0usize..16, 0usize..16), 1..8),
        pick in any::<proptest::sample::Index>(),
    ) {
        let program = build_synced(n_streams, &conflicts);
        program.validate().expect("generator emits valid programs");
        let env = CheckEnv::permissive(&program);
        let analysis = analyze(&program, &env);
        prop_assert!(
            analysis.report.is_clean(),
            "well-synchronized program must analyze clean:\n{}",
            analysis.report.render()
        );
        prop_assert_eq!(
            analysis.report.warnings().count(), 0,
            "generator leaves no dead events or unproduced reads"
        );

        let broken = drop_one_wait(&program, pick.index(conflicts.len()));
        broken.validate().expect("still structurally valid without the wait");
        let analysis = analyze(&broken, &CheckEnv::permissive(&broken));
        let diag = analysis
            .report
            .errors()
            .find(|d| d.code == CheckCode::Race || d.code == CheckCode::DeadlockCycle);
        let Some(diag) = diag else {
            return Err(TestCaseError(format!(
                "removing one sync edge must surface a race or deadlock:\n{}",
                broken.dump_annotated(&analysis.report)
            )));
        };

        // The claim must be executable: conflict buffers are `k`, result
        // buffers `conflicts.len() + k`.
        let lens = vec![4usize; 2 * conflicts.len()];
        let witness = analysis.witness(diag);
        match &witness.kind {
            WitnessKind::Race { order_ab, order_ba, .. } => {
                prop_assert_eq!(order_ab.len(), broken.action_count());
                prop_assert_eq!(order_ba.len(), broken.action_count());
                let sab = RefExec::run_order(&broken, &lens, order_ab);
                let sba = RefExec::run_order(&broken, &lens, order_ba);
                prop_assert!(
                    sab.fingerprint() != sba.fingerprint(),
                    "executing the witness schedules must observably misorder \
                     the unsynchronized pair:\n{}",
                    broken.dump_annotated(&analysis.report)
                );
            }
            // Never produced by deleting an edge from an acyclic graph,
            // but if the analyzer ever claims it, the claim must hold.
            WitnessKind::Deadlock { cycle } => {
                prop_assert!(!cycle.is_empty());
                prop_assert!(
                    RefExec::run_fifo(&broken, &lens).is_err(),
                    "a claimed deadlock must wedge the FIFO interpretation"
                );
            }
            WitnessKind::Structural => {
                return Err(TestCaseError(
                    "a dropped wait is a scheduling hazard, not a structural defect".to_string(),
                ));
            }
        }
    }
}
