//! Full-oracle integration: the fuzzing loop with native execution on
//! retention must stay deterministic and disagreement-free, and must
//! exercise every oracle family.

use hstreams::sched::SchedulerKind;
use hstreams::testutil::{build_chained, build_synced};
use stream_fuzz::{Fuzzer, FuzzerConfig, ProgramSpec};

fn run_session(seed: u64, budget: usize) -> Fuzzer {
    let mut f = Fuzzer::new(FuzzerConfig {
        seed,
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
            &build_chained(&[2, 1], &[(0, 0)], 2, 12),
            SchedulerKind::WorkSteal,
        ),
    );
    f.run(budget);
    f
}

#[test]
fn full_oracle_fuzzing_is_deterministic_and_agreeable() {
    let a = run_session(2024, 50);
    let b = run_session(2024, 50);
    assert_eq!(
        a.evolution_hash(),
        b.evolution_hash(),
        "same seed + corpus + budget must evolve identically"
    );
    assert_eq!(a.log(), b.log());
    assert!(
        a.findings().is_empty(),
        "three-oracle disagreements: {:?}",
        a.findings()
            .iter()
            .map(|f| (&f.class, &f.detail))
            .collect::<Vec<_>>()
    );
    let families = a.families();
    assert!(
        families.len() >= 4,
        "full runs must light ≥4 signal families, got {families:?}"
    );
    // The differential family only exists when native + reference agree.
    assert!(
        a.seen_signals().contains("diff:native-ref-agree"),
        "native/reference agreement never observed: {:?}",
        a.seen_signals()
    );
}

#[test]
fn different_seeds_explore_differently() {
    let a = run_session(1, 30);
    let b = run_session(2, 30);
    assert_ne!(
        a.evolution_hash(),
        b.evolution_hash(),
        "distinct master seeds should diverge"
    );
}
