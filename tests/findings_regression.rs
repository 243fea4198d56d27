//! Findings-regression suite: the two tuning-landscape shapes the paper's
//! figures hinge on, read from the figures' own rows
//! (`mic_bench::figures`) so a cost-model or runtime change that flattens
//! them fails loudly.
//!
//! * Fig. 7 — for a kernels-only (non-overlappable) workload, spatial
//!   sharing alone never beats the undivided reference, and past the sweet
//!   spot ever-finer partitions climb again: a U over `P` whose floor is
//!   `ref`.
//! * Fig. 10 — starving partitions (`T < P`) walks the makespan up in
//!   cliffs: each halving of the task count below `P` leaves more
//!   partitions idle.
//!
//! Shape assertions only — absolute numbers live in `EXPERIMENTS.md`.

use mic_bench::figures::{self, App, FIG07_PARTITIONS};
use mic_streams::micsim::PlatformConfig;

#[test]
fn fig7_partitioning_a_nonoverlappable_kernel_is_a_u_with_ref_at_the_floor() {
    // Fig. 7's setup: task granularity fixed (128 tiles), resource
    // granularity swept — including counts that do not divide the 56 usable
    // cores, whose core sharing builds the right flank. `ref` is the
    // non-tiled single-stream run.
    let fig07 = &figures::fig07(&PlatformConfig::phi_31sp())[0];
    let reference = fig07.value("ref (non-tiled)", 1).unwrap();
    let at = |p: usize| fig07.value("streamed+tiled", p).unwrap();
    let curve: Vec<f64> = FIG07_PARTITIONS.iter().map(|&p| at(p)).collect();
    for (p, s) in FIG07_PARTITIONS.iter().zip(&curve) {
        println!("P={p:3}: {s:.4} ms (ref {reference:.4})");
        assert!(
            *s > reference,
            "spatial sharing alone must not beat ref: P={p} {s} <= {reference}"
        );
    }
    // U-shape: the minimum is interior, and both extremes sit measurably
    // above the valley, on the whole sweep and on its inner P = 2..64.
    let min_idx = curve
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .unwrap()
        .0;
    let last = curve.len() - 1;
    assert!(
        min_idx != 0 && min_idx != last,
        "minimum must be interior: {curve:?}"
    );
    let valley = curve[min_idx];
    for p in [1, 2, 64, 128] {
        assert!(
            at(p) > valley * 1.2,
            "the flank at P={p} must rise well above the valley: {curve:?}"
        );
    }
    assert!(
        at(1) > at(8) && at(128) > at(8) && reference < at(8),
        "P=8 sits in the valley, ref below it: {curve:?}"
    );
}

#[test]
fn fig10_starving_partitions_raises_the_makespan_in_cliffs() {
    // Fig. 10 runs P = 4. T ≥ P keeps every partition fed; halving T below
    // P idles half the remaining partitions each step. Kmeans and NN are
    // the panels with every power of two up to 2P.
    let platform = PlatformConfig::phi_31sp();
    for app in [App::Kmeans, App::Nn] {
        let at = |t| figures::fig10_point(&platform, app, t);
        let (fed, t2, t1) = (at(4), at(2), at(1));
        println!("{app:?} P=4: T=4 {fed:.4}, T=2 {t2:.4}, T=1 {t1:.4}");
        assert!(
            t2 > fed * 1.3,
            "{app:?}: T=P/2 must be a cliff: {t2} vs {fed}"
        );
        assert!(
            t1 > t2 * 1.3,
            "{app:?}: T=P/4 must be another cliff: {t1} vs {t2}"
        );
        // Oversubscription past T = P is at worst mildly harmful, never a
        // cliff of its own.
        let t8 = at(8);
        assert!(
            t8 < fed * 1.3,
            "{app:?}: T=2P must not cliff: {t8} vs fed {fed}"
        );
    }
}
