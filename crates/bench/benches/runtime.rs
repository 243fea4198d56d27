//! Micro-benchmarks of the hstreams runtime: program recording, simulator
//! lowering, and native-executor overheads (launch latency, transfer
//! round-trip, event signalling).

use criterion::{criterion_group, criterion_main, Criterion};
use hstreams::kernel::KernelDesc;
use hstreams::Context;
use micsim::compute::KernelProfile;
use micsim::PlatformConfig;

fn record_program(tiles: usize) -> Context {
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(4)
        .build()
        .unwrap();
    for t in 0..tiles {
        let a = ctx.alloc(format!("a{t}"), 1024);
        let b = ctx.alloc(format!("b{t}"), 1024);
        let s = ctx.stream(t % 4).unwrap();
        ctx.h2d(s, a).unwrap();
        ctx.kernel(
            s,
            KernelDesc::simulated(format!("k{t}"), KernelProfile::streaming("k", 0.32e9), 1e6)
                .reading([a])
                .writing([b])
                .with_native(|k| {
                    let (r, w) = (&k.reads[0], &mut k.writes[0]);
                    for (o, i) in w.iter_mut().zip(r.iter()) {
                        *o = i + 1.0;
                    }
                }),
        )
        .unwrap();
        ctx.d2h(s, b).unwrap();
    }
    ctx
}

fn bench_recording(c: &mut Criterion) {
    c.bench_function("runtime/record_128_tiles", |b| {
        b.iter(|| record_program(128));
    });
}

fn bench_sim_executor(c: &mut Criterion) {
    let ctx = record_program(128);
    c.bench_function("runtime/simulate_128_tiles", |b| {
        b.iter(|| ctx.run_sim().unwrap());
    });
}

fn bench_native_executor(c: &mut Criterion) {
    let mut group = c.benchmark_group("native");
    group.sample_size(20);
    let ctx = record_program(32);
    group.bench_function("run_32_tiles", |b| b.iter(|| ctx.run_native().unwrap()));

    // Pure launch overhead: a single empty kernel.
    let mut tiny = Context::builder(PlatformConfig::phi_31sp())
        .build()
        .unwrap();
    let s = tiny.stream(0).unwrap();
    tiny.kernel(
        s,
        KernelDesc::simulated("noop", KernelProfile::streaming("noop", 1e9), 1.0)
            .with_native(|_| {}),
    )
    .unwrap();
    group.bench_function("single_kernel_launch", |b| {
        b.iter(|| tiny.run_native().unwrap());
    });

    // Pure launch overhead at the paper's 4-partition geometry: 64 no-op
    // kernels over 4 streams.
    let mut launch = Context::builder(PlatformConfig::phi_31sp())
        .partitions(4)
        .build()
        .unwrap();
    for s_idx in 0..4 {
        let s = launch.stream(s_idx).unwrap();
        for k in 0..16 {
            launch
                .kernel(
                    s,
                    KernelDesc::simulated(
                        format!("noop{s_idx}_{k}"),
                        KernelProfile::streaming("noop", 1e9),
                        1.0,
                    )
                    .with_native(|_| {}),
                )
                .unwrap();
        }
    }
    group.bench_function("launch_overhead_64noop_4p_pooled", |b| {
        b.iter(|| launch.run_native().unwrap());
    });

    // Transfer round trip of 1 MiB.
    let mut xfer = Context::builder(PlatformConfig::phi_31sp())
        .build()
        .unwrap();
    let buf = xfer.alloc("x", 1 << 18);
    let s = xfer.stream(0).unwrap();
    xfer.h2d(s, buf).unwrap();
    xfer.d2h(s, buf).unwrap();
    group.bench_function("transfer_1MiB_roundtrip", |b| {
        b.iter(|| xfer.run_native().unwrap());
    });
    group.finish();
}

fn bench_parallel_helpers(c: &mut Criterion) {
    let mut data = vec![1.0f32; 1 << 20];
    c.bench_function("parallel/par_chunks_mut_1M_x8", |b| {
        b.iter(|| {
            hstreams::parallel::par_chunks_mut(&mut data, 8, |_, _, chunk| {
                for v in chunk.iter_mut() {
                    *v += 1.0;
                }
            });
        });
    });
    c.bench_function("parallel/par_reduce_1M_x8", |b| {
        b.iter(|| {
            hstreams::parallel::par_reduce(
                1 << 20,
                8,
                |range| range.len() as u64,
                |a, x| a + x,
                0u64,
            )
        });
    });
}

criterion_group!(
    benches,
    bench_recording,
    bench_sim_executor,
    bench_native_executor,
    bench_parallel_helpers
);
criterion_main!(benches);
