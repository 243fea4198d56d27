//! Property-based validation of the applications: for arbitrary problem
//! shapes, tilings and kernel thread counts, the streamed native execution
//! must match the serial reference.

use hstreams::{Context, NativeConfig};
use mic_apps::{cholesky, hotspot, kmeans, mm, nn, srad, util};
use micsim::PlatformConfig;
use proptest::prelude::*;

fn ctx(partitions: usize) -> Context {
    Context::builder(PlatformConfig::phi_31sp())
        .partitions(partitions)
        .build()
        .unwrap()
}

/// Run with the kernels' `threads` hint pinned, so the row splits are
/// exercised for geometries `available_parallelism / partitions` never
/// picks on the host running the tests.
fn run_with_threads(c: &mut Context, threads: usize) {
    c.run_native_with(&NativeConfig {
        max_threads_per_partition: Some(threads),
        ..NativeConfig::default()
    })
    .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn mm_matches_reference_for_any_tiling(
        tpd in 1usize..5,
        tile in 4usize..12,
        p in 1usize..5,
        seed in 0u64..1000,
        threads in 1usize..8,
    ) {
        let n = tpd * tile;
        let cfg = mm::MmConfig { n, tiles_per_dim: tpd };
        let mut c = ctx(p);
        let bufs = mm::build(&mut c, &cfg).unwrap();
        let (a, b) = mm::fill_inputs(&c, &cfg, &bufs, seed).unwrap();
        run_with_threads(&mut c, threads);
        let got = mm::collect_result(&c, &cfg, &bufs).unwrap();
        let want = mm::reference(&a, &b);
        prop_assert!(util::max_rel_diff(&got.data, &want.data, 1.0) < 5e-3);
    }

    #[test]
    fn cholesky_matches_reference_for_any_tiling(
        tpd in 1usize..5,
        // Wide enough for edges under, at, across and coprime to one and two
        // of the kernels' 16-wide blocks and 32-lane solve steps.
        tile in 1usize..70,
        p in 1usize..5,
        seed in 0u64..1000,
        threads in 1usize..8,
    ) {
        let n = tpd * tile;
        let cfg = cholesky::CfConfig { n, tiles_per_dim: tpd };
        let mut c = ctx(p);
        let bufs = cholesky::build(&mut c, &cfg).unwrap();
        let a = cholesky::fill_inputs(&c, &cfg, &bufs, seed).unwrap();
        run_with_threads(&mut c, threads);
        let got = cholesky::collect_result(&c, &cfg, &bufs).unwrap();
        let want = cholesky::reference(&a, n);
        prop_assert!(util::max_rel_diff(&got, &want, 1.0) < 5e-3);
    }

    #[test]
    fn hotspot_matches_reference_for_any_shape(
        rows in 4usize..24,
        cols in 4usize..20,
        tiles in 1usize..5,
        iters in 1usize..5,
        seed in 0u64..1000,
        threads in 1usize..8,
    ) {
        let tiles = tiles.min(rows);
        let cfg = hotspot::HotspotConfig { rows, cols, iterations: iters, tiles };
        let mut c = ctx(2);
        let bufs = hotspot::build(&mut c, &cfg).unwrap();
        let (t0, p0) = hotspot::fill_inputs(&c, &cfg, &bufs, seed).unwrap();
        run_with_threads(&mut c, threads);
        let got = hotspot::collect_result(&c, &cfg, &bufs).unwrap();
        let want = hotspot::reference(&cfg, &t0, &p0);
        prop_assert!(util::max_rel_diff(&got, &want, 1.0) < 1e-3);
    }

    #[test]
    fn srad_matches_reference_for_any_shape(
        rows in 4usize..20,
        cols in 4usize..16,
        tiles in 1usize..4,
        iters in 1usize..4,
        seed in 0u64..1000,
        threads in 1usize..8,
    ) {
        let tiles = tiles.min(rows);
        let cfg = srad::SradConfig {
            rows,
            cols,
            lambda: 0.5,
            iterations: iters,
            tiles,
        };
        let mut c = ctx(2);
        let bufs = srad::build(&mut c, &cfg).unwrap();
        let img = srad::fill_inputs(&c, &cfg, &bufs, seed).unwrap();
        run_with_threads(&mut c, threads);
        let got = srad::collect_result(&c, &cfg, &bufs).unwrap();
        let want = srad::reference(&cfg, &img);
        prop_assert!(util::max_rel_diff(&got, &want, 1.0) < 1e-2);
    }

    #[test]
    fn nn_matches_reference_for_any_tiling(
        records in 32usize..2048,
        tiles in 1usize..9,
        k in 1usize..12,
        seed in 0u64..1000,
        threads in 1usize..8,
    ) {
        let tiles = tiles.min(records);
        let k = k.min(records);
        let cfg = nn::NnConfig { records, tiles, k, target: (40.0, 120.0) };
        let mut c = ctx(2);
        let bufs = nn::build(&mut c, &cfg).unwrap();
        let data = nn::fill_inputs(&c, &cfg, &bufs, seed).unwrap();
        run_with_threads(&mut c, threads);
        let got = nn::select_neighbors(&c, &cfg, &bufs).unwrap();
        let want = nn::reference(&cfg, &data);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g.1 - w.1).abs() < 1e-3);
        }
    }

    #[test]
    fn kmeans_matches_reference_for_any_tiling(
        points in 64usize..512,
        tiles in 1usize..6,
        k in 2usize..6,
        iters in 1usize..4,
        seed in 0u64..1000,
        threads in 1usize..8,
    ) {
        let cfg = kmeans::KmeansConfig {
            points,
            dims: 5,
            k,
            iterations: iters,
            tiles: tiles.min(points),
            alloc_micros: 5,
        };
        let mut c = ctx(2);
        let bufs = kmeans::build(&mut c, &cfg).unwrap();
        let data = kmeans::fill_inputs(&c, &cfg, &bufs, seed).unwrap();
        run_with_threads(&mut c, threads);
        let got = c.read_host(bufs.centroids).unwrap();
        let want = kmeans::reference(&cfg, &data);
        prop_assert!(util::max_rel_diff(&got, &want, 1.0) < 1e-2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Simulated makespans are monotone in problem size for a fixed config
    /// (a coarse sanity property of the cost models).
    #[test]
    fn sim_time_monotone_in_problem_size(base in 2usize..6, p in 1usize..5) {
        let makespan = |n| {
            let mut c = ctx(p);
            mm::build(&mut c, &mm::MmConfig { n, tiles_per_dim: base }).unwrap();
            c.run_sim().unwrap().makespan()
        };
        prop_assert!(makespan(base * 200) > makespan(base * 100));
    }
}
