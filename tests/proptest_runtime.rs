//! Property-based tests over the runtime: random tiled programs must
//! simulate deterministically, respect FIFO/dependency semantics, and
//! produce identical numeric results natively regardless of partitioning.

use mic_streams::hstreams::kernel::KernelDesc;
use mic_streams::hstreams::Context;
use mic_streams::micsim::compute::KernelProfile;
use mic_streams::micsim::PlatformConfig;
use proptest::prelude::*;

fn prof() -> KernelProfile {
    KernelProfile::streaming("k", 0.32e9)
}

/// Build a random but *valid* tiled pipeline: `tiles` tasks over `p`
/// partitions, each `h2d -> kernel(scale by tile index) -> d2h`.
fn tiled_program(
    p: usize,
    tiles: usize,
    elems: usize,
) -> (Context, Vec<mic_streams::hstreams::BufId>) {
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(p)
        .build()
        .unwrap();
    let mut outs = Vec::new();
    for t in 0..tiles {
        let a = ctx.alloc(format!("a{t}"), elems);
        let b = ctx.alloc(format!("b{t}"), elems);
        let s = ctx.stream(t % ctx.stream_count()).unwrap();
        let scale = (t + 1) as f32;
        ctx.write_host(a, &vec![1.0; elems]).unwrap();
        ctx.h2d(s, a).unwrap();
        ctx.kernel(
            s,
            KernelDesc::simulated(format!("k{t}"), prof(), elems as f64)
                .reading([a])
                .writing([b])
                .with_native(move |k| {
                    for (o, i) in k.writes[0].iter_mut().zip(k.reads[0]) {
                        *o = i * scale;
                    }
                }),
        )
        .unwrap();
        ctx.d2h(s, b).unwrap();
        outs.push(b);
    }
    (ctx, outs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Determinism: the same program simulates to the same makespan, twice.
    #[test]
    fn simulation_is_deterministic(p in 1usize..16, tiles in 1usize..24) {
        let (ctx, _) = tiled_program(p, tiles, 256);
        let m1 = ctx.run_sim().unwrap().makespan();
        let m2 = ctx.run_sim().unwrap().makespan();
        prop_assert_eq!(m1, m2);
    }

    /// The makespan respects two lower bounds: total link time (serial
    /// link), and the longest single task chain.
    #[test]
    fn makespan_respects_lower_bounds(p in 1usize..8, tiles in 1usize..16) {
        let elems = 1usize << 16;
        let (ctx, _) = tiled_program(p, tiles, elems);
        let report = ctx.run_sim().unwrap();
        let stats = report.overlap();
        prop_assert!(report.makespan() >= stats.link_busy);
        prop_assert!(report.makespan() >= stats.ideal_makespan());
        // All link traffic: 2 transfers per tile.
        prop_assert!(stats.link_busy.nanos() > 0);
    }

    /// Per-stream FIFO: in the simulated timeline, actions of one stream
    /// never overlap and appear in enqueue order.
    #[test]
    fn stream_fifo_holds_in_timeline(p in 1usize..6, tiles in 2usize..12) {
        let (ctx, _) = tiled_program(p, tiles, 1024);
        let report = ctx.run_sim().unwrap();
        // Tasks of tile t live on stream t % p; group records per tile chain
        // (h2d, kernel, d2h appear consecutively per tile in task order).
        let recs = &report.timeline.records;
        for chunk in recs.chunks(3) {
            if chunk.len() == 3 {
                prop_assert!(chunk[0].finish <= chunk[1].start);
                prop_assert!(chunk[1].finish <= chunk[2].start);
            }
        }
    }

    /// Native execution computes the same results for every partitioning.
    #[test]
    fn native_results_independent_of_partitioning(p in 1usize..5, tiles in 1usize..8) {
        let elems = 128usize;
        let (ctx, outs) = tiled_program(p, tiles, elems);
        ctx.run_native().unwrap();
        for (t, b) in outs.iter().enumerate() {
            let got = ctx.read_host(*b).unwrap();
            let want = vec![(t + 1) as f32; elems];
            prop_assert_eq!(got, want);
        }
    }

    /// Buffer sizes survive the byte/element round trip for any length.
    #[test]
    fn buffer_byte_accounting(len in 0usize..100_000) {
        let mut ctx = Context::builder(PlatformConfig::phi_31sp()).build().unwrap();
        let b = ctx.alloc("b", len);
        prop_assert_eq!(ctx.buffer(b).unwrap().bytes(), len as u64 * 4);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Barriers partition the timeline: nothing enqueued after a barrier
    /// starts before everything enqueued before it finished.
    #[test]
    fn barrier_orders_everything(p in 2usize..6, pre in 1usize..6, post in 1usize..6) {
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(p)
            .build()
            .unwrap();
        for t in 0..pre {
            let a = ctx.alloc(format!("pre{t}"), 4096);
            let s = ctx.stream(t % p).unwrap();
            ctx.h2d(s, a).unwrap();
        }
        ctx.barrier();
        for t in 0..post {
            let a = ctx.alloc(format!("post{t}"), 4096);
            let s = ctx.stream(t % p).unwrap();
            ctx.h2d(s, a).unwrap();
        }
        let report = ctx.run_sim().unwrap();
        let recs = &report.timeline.records;
        let barrier_finish = recs
            .iter()
            .find(|r| report.label(r).starts_with("barrier"))
            .unwrap()
            .finish;
        for r in recs {
            if report.label(r).starts_with("h2d") {
                if r.task.0 < pre + p {
                    // pre-barrier transfers (first `pre` tasks)
                    if r.task.0 < pre {
                        prop_assert!(r.finish <= barrier_finish);
                    }
                } else {
                    prop_assert!(r.start >= barrier_finish);
                }
            }
        }
    }
}
