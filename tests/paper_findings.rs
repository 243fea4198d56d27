//! The paper's six concluding observations, each asserted on the rows of
//! the figure that shows it (`mic_bench::figures`, the paper's own
//! parameters). These are the repository's "does it reproduce the paper"
//! gates; `EXPERIMENTS.md` records the numbers and
//! `crates/bench/tests/golden/` pins them.

use mic_bench::figures::{self, App};
use mic_streams::micsim::PlatformConfig;

fn phi() -> PlatformConfig {
    PlatformConfig::phi_31sp()
}

/// Finding 1: data transfers in both directions cannot run concurrently.
#[test]
fn finding1_transfers_serialize() {
    let fig05 = &figures::fig05(&phi())[0];
    let at = |series, x| fig05.value(series, x).unwrap();
    // ID case flat == serial link; sum == CC case.
    let (id_a, id_b) = (at("ID", 4), at("ID", 12));
    let diff = (id_a - id_b).abs() / id_a;
    assert!(diff < 0.02, "ID case must be flat: {id_a} vs {id_b}");
    // CD at 16 moves 16 blocks one way and none back.
    let ratio = at("CC", 16) / at("CD", 16);
    assert!(
        (ratio - 2.0).abs() < 0.1,
        "serial: CC ≈ 2x one-way, got {ratio}"
    );
}

/// Finding 2: transfers overlap kernels, but never fully.
#[test]
fn finding2_partial_overlap() {
    let fig06 = &figures::fig06(&phi())[0];
    let at = |series| fig06.value(series, 40).unwrap();
    assert!(at("Streamed") < at("Data+Kernel"), "overlap exists");
    assert!(at("Streamed") > at("Ideal"), "full overlap unattainable");
}

/// Finding 3: spatial sharing alone does not speed up a non-overlappable
/// kernel — the non-tiled reference beats every tiled configuration.
#[test]
fn finding3_spatial_sharing_alone_no_gain() {
    let fig07 = &figures::fig07(&phi())[0];
    let tiled_best = fig07.series[0]
        .points
        .iter()
        .map(|&(_, ms)| ms)
        .fold(f64::INFINITY, f64::min);
    let non_tiled = fig07.value("ref (non-tiled)", 1).unwrap();
    assert!(
        non_tiled < tiled_best,
        "ref {non_tiled} must beat best tiled {tiled_best}"
    );
}

/// Finding 4: being overlappable is a must — MM (overlappable) gains,
/// Hotspot (non-overlappable) does not. Fig. 8's smallest MM dataset and
/// its 2048² Hotspot grid.
#[test]
fn finding4_overlappable_is_a_must() {
    let mm = figures::fig08_row(&phi(), App::Mm, 2000);
    assert!(
        mm.with > mm.without,
        "overlappable MM gains from streams: {mm:?}"
    );

    let hs = figures::fig08_row(&phi(), App::Hotspot, 2048);
    let change = (hs.without / hs.with - 1.0).abs();
    assert!(
        change < 0.35,
        "non-overlappable Hotspot stays within noise of w/o: {:.1}%",
        hs.gain
    );
}

/// Finding 5: both granularities matter — bad T or bad P costs real
/// factors. MM at D = 6000 (GFLOPS): Fig. 10's T = 1 against T = 4 at
/// P = 4, and Fig. 9's misaligned P = 13 against aligned P = 14.
#[test]
fn finding5_granularity_matters() {
    // T < P: idle partitions.
    let good = figures::fig10_point(&phi(), App::Mm, 2);
    let starved = figures::fig10_point(&phi(), App::Mm, 1);
    assert!(
        good > starved * 1.2,
        "T<P starves partitions: {starved} vs {good} GFLOPS"
    );
    // Misaligned P: core sharing.
    let misaligned = figures::fig09_point(&phi(), App::Mm, 13);
    let aligned = figures::fig09_point(&phi(), App::Mm, 14);
    assert!(
        aligned > misaligned * 1.1,
        "misaligned P pays contention: {misaligned} vs {aligned} GFLOPS"
    );
}

/// Finding 6: a non-overlappable app (Kmeans) can still gain — from the
/// reduced per-invocation allocation cost. Fig. 8's smallest dataset.
#[test]
fn finding6_kmeans_gains_via_alloc() {
    let row = figures::fig08_row(&phi(), App::Kmeans, 140_000);
    assert!(
        row.with < row.without,
        "kmeans (non-overlappable) still gains from streams: {row:?}"
    );
}

/// Sanity: every simulated makespan of Fig. 5 is positive and finite.
#[test]
fn simulated_times_are_sane() {
    for fig in figures::fig05(&phi()) {
        for series in &fig.series {
            for &(_, ms) in &series.points {
                assert!(ms > 0.0 && ms < 100.0, "{}: {ms} ms", fig.id);
            }
        }
    }
}
