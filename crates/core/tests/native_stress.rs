//! Concurrency stress for the native executor: many streams, long FIFO
//! chains, dense cross-stream event webs, repeated barriers — the shapes
//! that shake out ordering races, deadlocks, and lost wakeups.

use hstreams::kernel::KernelDesc;
use hstreams::{Context, NativeConfig};
use micsim::compute::KernelProfile;
use micsim::PlatformConfig;

fn prof() -> KernelProfile {
    KernelProfile::streaming("k", 1e9)
}

/// A long chain of cross-stream handoffs: stream i increments the value and
/// passes it to stream i+1 via an event, wrapping around many times. Any
/// lost event or misordered kernel breaks the final count.
#[test]
fn event_relay_ring() {
    let streams = 8;
    let laps = 25;
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(streams)
        .build()
        .unwrap();
    let token = ctx.alloc("token", 1);
    let mut prev_event = None;
    for lap in 0..laps {
        for i in 0..streams {
            let s = ctx.stream(i).unwrap();
            if let Some(e) = prev_event {
                ctx.wait_event(s, e).unwrap();
            }
            ctx.kernel(
                s,
                KernelDesc::simulated(format!("inc({lap},{i})"), prof(), 1.0)
                    .writing([token])
                    .with_native(|k| k.writes[0][0] += 1.0),
            )
            .unwrap();
            prev_event = Some(ctx.record_event(s).unwrap());
        }
        // Hand the token back to stream 0 for the next lap: handled by the
        // wait at the top of the loop.
    }
    // The final increment ran on the last stream; its FIFO orders the
    // readback transfer after it.
    let s_writer = ctx.stream(streams - 1).unwrap();
    ctx.d2h(s_writer, token).unwrap();
    ctx.run_native().unwrap();
    assert_eq!(
        ctx.read_host(token).unwrap(),
        vec![(streams * laps) as f32],
        "every increment must land exactly once, in order"
    );
}

/// Dense barrier ladder: every stream bumps its own counter between
/// barriers; after each barrier one stream checks the global invariant.
#[test]
fn barrier_ladder_consistency() {
    let streams = 6;
    let rounds = 12;
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(streams)
        .build()
        .unwrap();
    let counters: Vec<_> = (0..streams)
        .map(|i| ctx.alloc(format!("c{i}"), 1))
        .collect();
    let check = ctx.alloc("check", 1);
    for round in 0..rounds {
        for (i, &c) in counters.iter().enumerate() {
            let s = ctx.stream(i).unwrap();
            ctx.kernel(
                s,
                KernelDesc::simulated(format!("bump({round},{i})"), prof(), 1.0)
                    .writing([c])
                    .with_native(|k| k.writes[0][0] += 1.0),
            )
            .unwrap();
        }
        ctx.barrier();
        // Stream `round % streams` sums all counters; with the barrier the
        // sum must be exactly streams * (round + 1).
        let s = ctx.stream(round % streams).unwrap();
        let expect = (streams * (round + 1)) as f32;
        ctx.kernel(
            s,
            KernelDesc::simulated(format!("check({round})"), prof(), 1.0)
                .reading(counters.iter().copied())
                .writing([check])
                .with_native(move |k| {
                    let sum: f32 = k.reads.iter().map(|r| r[0]).sum();
                    assert_eq!(sum, expect, "barrier must separate rounds");
                    k.writes[0][0] = sum;
                }),
        )
        .unwrap();
        ctx.barrier();
    }
    let s0 = ctx.stream(0).unwrap();
    ctx.d2h(s0, check).unwrap();
    ctx.run_native().unwrap();
    assert_eq!(
        ctx.read_host(check).unwrap(),
        vec![(streams * rounds) as f32]
    );
}

/// Many tiny transfers through the serialized link lane while kernels run:
/// checks the lane never drops or reorders same-stream copies.
#[test]
fn link_lane_hammering() {
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(4)
        .build()
        .unwrap();
    let n_bufs = 64;
    let bufs: Vec<_> = (0..n_bufs)
        .map(|i| ctx.alloc(format!("b{i}"), 16))
        .collect();
    for (i, &b) in bufs.iter().enumerate() {
        ctx.write_host(b, &[i as f32; 16]).unwrap();
        let s = ctx.stream(i % 4).unwrap();
        ctx.h2d(s, b).unwrap();
        ctx.kernel(
            s,
            KernelDesc::simulated(format!("x2({i})"), prof(), 16.0)
                .writing([b])
                .with_native(|k| {
                    for v in k.writes[0].iter_mut() {
                        *v *= 2.0;
                    }
                }),
        )
        .unwrap();
        ctx.d2h(s, b).unwrap();
    }
    let report = ctx.run_native().unwrap();
    assert_eq!(report.actions_executed, n_bufs * 3);
    for (i, &b) in bufs.iter().enumerate() {
        assert_eq!(ctx.read_host(b).unwrap(), vec![2.0 * i as f32; 16]);
    }
}

/// The whole circus at once, repeated: events + barriers + transfers +
/// shared-partition streams, checked for deadlock by simply finishing.
#[test]
fn mixed_stress_repeated() {
    for round in 0..5 {
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(3)
            .streams_per_partition(2)
            .build()
            .unwrap();
        let data = ctx.alloc("data", 32);
        let out = ctx.alloc("out", 32);
        let s: Vec<_> = (0..6).map(|i| ctx.stream(i).unwrap()).collect();
        ctx.write_host(data, &[1.0; 32]).unwrap();
        ctx.h2d(s[0], data).unwrap();
        let e0 = ctx.record_event(s[0]).unwrap();
        for stream in s.iter().skip(1) {
            ctx.wait_event(*stream, e0).unwrap();
        }
        ctx.barrier();
        ctx.kernel(
            s[round % 6],
            KernelDesc::simulated("work", prof(), 32.0)
                .reading([data])
                .writing([out])
                .with_native(|k| {
                    for (o, i) in k.writes[0].iter_mut().zip(k.reads[0]) {
                        *o = i + 41.0;
                    }
                }),
        )
        .unwrap();
        ctx.barrier();
        ctx.d2h(s[5], out).unwrap();
        ctx.run_native().unwrap();
        assert_eq!(ctx.read_host(out).unwrap(), vec![42.0; 32]);
    }
}

/// Throttled link under contention: total wall time respects the bandwidth
/// floor even with 8 streams fighting for the engine.
#[test]
fn throttled_link_respects_floor_under_contention() {
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(8)
        .build()
        .unwrap();
    let per_buf = 64 << 10; // 256 KiB each
    for i in 0..8 {
        let b = ctx.alloc(format!("b{i}"), per_buf);
        let s = ctx.stream(i).unwrap();
        ctx.h2d(s, b).unwrap();
    }
    let report = ctx
        .run_native_with(&NativeConfig {
            link_bandwidth: Some(100.0e6),
            ..NativeConfig::default()
        })
        .unwrap();
    // 8 x 256 KiB = 2 MiB at 100 MB/s => at least ~20 ms.
    assert!(
        report.wall.as_millis() >= 18,
        "bandwidth floor violated: {:?}",
        report.wall
    );
}
