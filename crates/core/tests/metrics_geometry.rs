//! Regression: interleaved metered runs at different partition
//! geometries must not alias each other's instrument catalogs.
//!
//! Every metered run declares its catalog into a fresh snapshot from the
//! lane geometry it ran on. State carried across runs would leak: a
//! snapshot that outlived a P=4 run would keep exporting the two dead
//! partitions' series at P=2. Alternating replans must export byte-stable
//! catalogs per geometry, with no leakage between shapes.

use hstreams::kernel::KernelDesc;
use hstreams::{Context, NativeConfig};
use micsim::compute::KernelProfile;
use micsim::PlatformConfig;

/// Record one no-op native kernel on stream 0 and run metered natively,
/// returning the exported catalog (series identities, sorted).
fn metered_catalog(ctx: &mut Context) -> Vec<String> {
    ctx.reset_program();
    let a = ctx.alloc(format!("a{}", ctx.buffer_count()), 4);
    let s = ctx.stream(0).unwrap();
    ctx.kernel(
        s,
        KernelDesc::simulated("nop", KernelProfile::streaming("nop", 1e9), 1.0)
            .writing([a])
            .with_native(|_| {}),
    )
    .unwrap();
    let report = ctx
        .run_native_with(&NativeConfig {
            metrics: true,
            ..NativeConfig::default()
        })
        .unwrap();
    report.metrics.expect("metered run").series_names()
}

#[test]
fn alternating_geometries_export_byte_stable_catalogs() {
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(2)
        .replan_capacity(4)
        .build()
        .unwrap();

    let p2_first = metered_catalog(&mut ctx);
    ctx.replan(4).unwrap();
    let p4 = metered_catalog(&mut ctx);
    ctx.replan(2).unwrap();
    let p2_second = metered_catalog(&mut ctx);

    assert_eq!(
        p2_first, p2_second,
        "interleaving a P=4 run must leave the P=2 catalog byte-identical"
    );
    assert!(
        p2_first.iter().all(|s| !s.contains("partition=\"2\"")),
        "P=2 catalog must not carry P=4 partition series: {p2_first:?}"
    );
    assert!(
        p4.iter().any(|s| s.contains("partition=\"3\"")),
        "P=4 catalog registers all four partitions: {p4:?}"
    );
    assert_ne!(p2_first, p4, "the two geometries are distinct catalogs");
}

#[test]
fn repeated_same_geometry_catalogs_are_stable_across_a_failed_geometry() {
    // A second context pinned at its build geometry: repeated runs price
    // fresh snapshots and the catalog never drifts.
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(3)
        .build()
        .unwrap();
    let first = metered_catalog(&mut ctx);
    for _ in 0..3 {
        assert_eq!(metered_catalog(&mut ctx), first);
    }
}
