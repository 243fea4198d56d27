//! Integration checks for the persistent worker-pool runtime: repeated
//! native runs must reuse the same OS threads, and kernels placed on
//! distinct partitions must genuinely overlap.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hstreams::kernel::KernelDesc;
use hstreams::Context;
use micsim::compute::KernelProfile;
use micsim::PlatformConfig;

fn prof() -> KernelProfile {
    KernelProfile::streaming("k", 1e9)
}

/// The runtime's own OS threads in this process — those named `hsp-*`
/// (Linux). Counting all of `/proc/self/task` would also count libtest's
/// sibling test threads, which come and go while this test runs. `None`
/// where `/proc` is unavailable, so the growth assertion degrades to the
/// runtime's own count.
fn runtime_os_threads() -> Option<usize> {
    runtime_os_thread_names().map(|names| names.len())
}

/// The names behind [`runtime_os_threads`].
fn runtime_os_thread_names() -> Option<Vec<String>> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("hsp-"))
            .collect(),
    )
}

/// Every test here builds a native runtime, and `hsp-*` thread names do
/// not say whose runtime they belong to: hold this while a context lives so
/// the census in `hundred_runs_do_not_grow_thread_count` sees only its own.
fn one_runtime_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn hundred_runs_do_not_grow_thread_count() {
    let _serial = one_runtime_at_a_time();
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(4)
        .build()
        .unwrap();
    let bufs: Vec<_> = (0..4).map(|i| ctx.alloc(format!("b{i}"), 256)).collect();
    for (i, &b) in bufs.iter().enumerate() {
        let s = ctx.stream(i).unwrap();
        ctx.h2d(s, b).unwrap();
        ctx.kernel(
            s,
            KernelDesc::simulated(format!("k{i}"), prof(), 256.0)
                .writing([b])
                .with_native(|k| {
                    let parts = k.threads;
                    hstreams::parallel::par_chunks_mut(k.writes[0], parts, |_, off, chunk| {
                        for (j, x) in chunk.iter_mut().enumerate() {
                            *x = (off + j) as f32;
                        }
                    });
                }),
        )
        .unwrap();
        ctx.d2h(s, b).unwrap();
    }

    // First run builds the persistent runtime.
    ctx.run_native().unwrap();
    let rt_threads = ctx.native_thread_count().expect("runtime built");

    for _ in 0..99 {
        ctx.run_native().unwrap();
    }

    assert_eq!(
        ctx.native_thread_count().unwrap(),
        rt_threads,
        "runtime thread count grew across 100 runs"
    );
    if let Some(os_threads) = runtime_os_threads() {
        assert_eq!(
            os_threads, rt_threads,
            "the process holds runtime threads the runtime does not account for"
        );
    }
    let expect: Vec<f32> = (0..256).map(|j| j as f32).collect();
    for &b in &bufs {
        assert_eq!(ctx.read_host(b).unwrap(), expect);
    }
}

#[test]
fn runtime_threads_are_stream_drivers_plus_pool_workers() {
    // A link channel is a lock the submitting driver takes, not a thread:
    // the runtime owns one driver per stream beyond the submitting thread's
    // own, and `width − 1` workers in each partition group and the host
    // group (the kernel's driver is the group's first member) — nothing
    // per link channel, on one card or two.
    let _serial = one_runtime_at_a_time();
    let host_par = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    for devices in [1, 2] {
        let mut ctx = Context::builder(PlatformConfig::phi_31sp_multi(devices))
            .partitions(2)
            .build()
            .unwrap();
        // Every stream uploads and downloads, so every link lane is used.
        for i in 0..ctx.stream_count() {
            let b = ctx.alloc(format!("b{i}"), 64);
            let s = ctx.stream(i).unwrap();
            ctx.h2d(s, b).unwrap();
            ctx.d2h(s, b).unwrap();
        }
        ctx.run_native().unwrap();
        let drivers = ctx.stream_count() - 1;
        let width = (host_par / 2).max(1);
        let pool_workers = (devices * 2 + 1) * (width - 1);
        assert_eq!(
            ctx.native_thread_count(),
            Some(drivers + pool_workers),
            "{devices} device(s)"
        );
        if let Some(names) = runtime_os_thread_names() {
            assert_eq!(names.len(), drivers + pool_workers, "{names:?}");
            assert!(
                !names.iter().any(|name| name.starts_with("hsp-copy")),
                "a copy-engine thread is alive: {names:?}"
            );
        }
    }
}

#[test]
fn cross_partition_kernels_overlap() {
    // Each kernel waits (bounded) until both are inside their bodies; the
    // flag can only be set if the two partitions run concurrently. A
    // serialized runtime would time out and fail the assertion rather than
    // deadlock.
    let _serial = one_runtime_at_a_time();
    let inside = Arc::new(AtomicUsize::new(0));
    let overlapped = Arc::new(AtomicBool::new(false));
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(2)
        .build()
        .unwrap();
    for i in 0..2 {
        let s = ctx.stream(i).unwrap();
        let inside = inside.clone();
        let overlapped = overlapped.clone();
        ctx.kernel(
            s,
            KernelDesc::simulated(format!("k{i}"), prof(), 1.0).with_native(move |_| {
                inside.fetch_add(1, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(5);
                while Instant::now() < deadline {
                    // Break as soon as either body observed both inside.
                    if inside.load(Ordering::SeqCst) == 2 || overlapped.load(Ordering::SeqCst) {
                        overlapped.store(true, Ordering::SeqCst);
                        break;
                    }
                    std::thread::yield_now();
                }
                inside.fetch_sub(1, Ordering::SeqCst);
            }),
        )
        .unwrap();
    }
    ctx.run_native().unwrap();
    assert!(
        overlapped.load(Ordering::SeqCst),
        "kernels on distinct partitions must overlap"
    );
}

#[test]
fn multi_stage_pooled_run_matches_closed_form() {
    // A multi-stream, multi-stage program whose kernel bodies chunk and
    // reduce on the partition pools: every element and the reduced total
    // have closed-form values.
    let _serial = one_runtime_at_a_time();
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(2)
        .streams_per_partition(2)
        .build()
        .unwrap();
    let x = ctx.alloc("x", 1024);
    let y = ctx.alloc("y", 1024);
    ctx.write_host(x, &[0.5; 1024]).unwrap();
    let s: Vec<_> = (0..4).map(|i| ctx.stream(i).unwrap()).collect();
    ctx.h2d(s[0], x).unwrap();
    let e = ctx.record_event(s[0]).unwrap();
    ctx.wait_event(s[1], e).unwrap();
    ctx.kernel(
        s[1],
        KernelDesc::simulated("scale", prof(), 1024.0)
            .reading([x])
            .writing([y])
            .with_native(|k| {
                let parts = k.threads;
                let input = k.reads[0];
                hstreams::parallel::par_chunks_mut(k.writes[0], parts, |_, off, chunk| {
                    for (j, o) in chunk.iter_mut().enumerate() {
                        *o = input[off + j] * 4.0 + 1.0;
                    }
                });
            }),
    )
    .unwrap();
    ctx.barrier();
    ctx.kernel(
        s[3],
        KernelDesc::simulated("sum", prof(), 1024.0)
            .reading([y])
            .writing([x])
            .with_native(|k| {
                let parts = k.threads;
                let input = k.reads[0];
                let total = hstreams::parallel::par_reduce(
                    input.len(),
                    parts,
                    |range| range.map(|j| input[j]).sum::<f32>(),
                    |a, b| a + b,
                    0.0,
                );
                k.writes[0][0] = total;
            }),
    )
    .unwrap();
    ctx.d2h(s[3], x).unwrap();
    let report = ctx.run_native().unwrap();
    // h2d + two kernels + d2h; two 1024-element f32 transfers.
    assert_eq!(report.actions_executed, 4);
    assert_eq!(report.bytes_transferred, 2 * 1024 * 4);
    // The reduced total lands in x[0]; the rest of x is the device copy the
    // h2d uploaded.
    let mut expect = vec![0.5f32; 1024];
    expect[0] = 3072.0;
    assert_eq!(ctx.read_host(x).unwrap(), expect);
}
