//! Integration tests for native-executor tracing: the measured timeline
//! must behave like a simulator timeline under the existing analysis tools,
//! and the structural claims of the platform model (serialized link lane,
//! overlap only with multiple streams) must show up in real measurements.

use std::time::Duration;

use hstreams::context::Context;
use hstreams::kernel::KernelDesc;
use hstreams::NativeConfig;
use micsim::compute::KernelProfile;
use micsim::trace::{intersect, merge_intervals, Interval};
use micsim::PlatformConfig;

fn small_ctx(partitions: usize) -> Context {
    Context::builder(PlatformConfig::phi_31sp())
        .partitions(partitions)
        .build()
        .unwrap()
}

fn native_kernel(label: &str) -> KernelDesc {
    KernelDesc::simulated(label, KernelProfile::streaming("k", 1e9), 1.0)
}

fn traced_cfg() -> NativeConfig {
    NativeConfig {
        trace: true,
        ..NativeConfig::default()
    }
}

#[test]
fn bytes_transferred_is_sum_of_transfer_sizes() {
    // Satellite (b): the report's byte counter must equal the sum of the
    // H2D and D2H buffer sizes, element size included.
    let mut ctx = small_ctx(1);
    let a = ctx.alloc("a", 100); // 400 bytes
    let b = ctx.alloc("b", 7); // 28 bytes
    let s = ctx.stream(0).unwrap();
    ctx.h2d(s, a).unwrap();
    ctx.h2d(s, b).unwrap();
    ctx.kernel(
        s,
        native_kernel("touch")
            .reading([a])
            .writing([b])
            .with_native(|k| {
                k.writes[0][0] = k.reads[0][0];
            }),
    )
    .unwrap();
    ctx.d2h(s, b).unwrap();
    let elem = std::mem::size_of::<hstreams::Elem>() as u64;
    let expected = (100 + 7) * elem + 7 * elem;
    let report = ctx.run_native().unwrap();
    assert_eq!(report.bytes_transferred, expected);
    // And the traced path counts identically.
    let report = ctx.run_native_with(&traced_cfg()).unwrap();
    assert_eq!(report.bytes_transferred, expected);
}

#[test]
fn untraced_run_reports_no_trace() {
    let mut ctx = small_ctx(1);
    let a = ctx.alloc("a", 4);
    let s = ctx.stream(0).unwrap();
    ctx.h2d(s, a).unwrap();
    let report = ctx.run_native().unwrap();
    assert!(report.trace.is_none());
}

#[test]
fn traced_run_yields_analyzable_timeline() {
    // The tentpole claim: trace:true returns a Timeline the existing sim
    // tooling consumes unchanged.
    let mut ctx = small_ctx(2);
    let a = ctx.alloc("a", 1 << 12);
    let b = ctx.alloc("b", 1 << 12);
    let (s0, s1) = (ctx.stream(0).unwrap(), ctx.stream(1).unwrap());
    ctx.h2d(s0, a).unwrap();
    let e = ctx.record_event(s0).unwrap();
    ctx.wait_event(s1, e).unwrap();
    ctx.kernel(
        s1,
        native_kernel("scale")
            .reading([a])
            .writing([b])
            .with_native(|k| {
                for (o, i) in k.writes[0].iter_mut().zip(k.reads[0]) {
                    *o = i * 2.0;
                }
            }),
    )
    .unwrap();
    ctx.d2h(s1, b).unwrap();

    let report = ctx.run_native_with(&traced_cfg()).unwrap();
    let trace = report.trace.expect("trace requested");

    // Timeline: every action produced at least one record, spans are within
    // the makespan, resource lanes resolve to names.
    assert!(trace.timeline.records.len() >= 5, "{:?}", trace.timeline);
    for r in &trace.timeline.records {
        assert!(r.finish >= r.start);
        assert!(r.finish.since(micsim::time::SimTime::ZERO) <= trace.timeline.makespan);
        if let Some(res) = r.resource {
            assert!(trace.names().contains_key(&res), "unnamed lane {res:?}");
        }
    }

    // overlap_stats runs unchanged and is self-consistent.
    let stats = trace.overlap();
    assert!(
        stats.link_busy.nanos() > 0,
        "transfers must occupy the link"
    );
    assert!(stats.compute_busy.nanos() > 0, "kernel must occupy a lane");
    assert!(stats.overlap <= stats.link_busy);
    assert!(stats.overlap <= stats.compute_busy);
    assert!((0.0..=1.0).contains(&stats.hidden_fraction()));

    // Gantt and Chrome export run unchanged.
    let gantt = trace.gantt(72);
    assert!(gantt.contains("mic0.link0"), "{gantt}");
    assert!(
        gantt.contains("mic0.p1") || gantt.contains("mic0.p0"),
        "{gantt}"
    );
    let chrome = trace.chrome_trace();
    assert!(chrome.contains("\"scale\""), "{chrome}");
    assert!(chrome.contains("h2d b0"), "{chrome}");

    // Counters: one kernel launch was measured, queue waits exist per
    // stream.
    assert_eq!(trace.counters.launch_overhead.count, 1);
    assert_eq!(trace.counters.queue_wait.len(), 2);
    assert!(!trace.counters.copy_busy_fraction.is_empty());
}

#[test]
fn link_lane_never_overlaps_itself() {
    // Acceptance check (a): on a serial-duplex link the H2D and D2H
    // intervals share one engine, so the merged lane intervals of the raw
    // records must already be disjoint — merging must not shrink the count,
    // and consecutive intervals must not intersect. A throttled link makes
    // the copies long enough that any double-booking would be visible.
    let mut ctx = small_ctx(2);
    let bufs: Vec<_> = (0..4)
        .map(|i| ctx.alloc(format!("t{i}"), 1 << 14))
        .collect();
    for (i, b) in bufs.iter().enumerate() {
        let s = ctx.stream(i % 2).unwrap();
        ctx.h2d(s, *b).unwrap();
        ctx.d2h(s, *b).unwrap();
    }
    let report = ctx
        .run_native_with(&NativeConfig {
            trace: true,
            link_bandwidth: Some(50.0e6), // 64 KiB per copy -> ~1.3 ms each
            ..NativeConfig::default()
        })
        .unwrap();
    let trace = report.trace.unwrap();
    let raw: Vec<Interval> = trace
        .timeline
        .records
        .iter()
        .filter(|r| r.resource == Some(trace.kinds.links[0]))
        .map(|r| Interval {
            start: r.start,
            end: r.finish,
        })
        .collect();
    assert_eq!(raw.len(), 8, "4 h2d + 4 d2h on the single serial channel");
    let merged = merge_intervals(raw.clone());
    assert_eq!(
        merged.len(),
        raw.len(),
        "copy intervals double-booked the engine: {raw:?}"
    );
    // Pairwise: each interval intersected with the union of the others is
    // empty.
    for (i, iv) in merged.iter().enumerate() {
        let others: Vec<Interval> = merged
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, o)| *o)
            .collect();
        assert!(
            intersect(&[*iv], &others).is_empty(),
            "interval {iv:?} overlaps another engine interval"
        );
    }
}

/// `per_stream` same-sized transfers of direction `dirs[s]` on each of two
/// streams, over a link throttled to ~0.5 ms per transfer so the lanes stay
/// contended for the whole run. Returns the traced run; buffer `2 * i + s`
/// belongs to stream `s`.
fn contended_link_trace(
    platform: PlatformConfig,
    dirs: [micsim::Direction; 2],
    per_stream: usize,
) -> hstreams::NativeTrace {
    let mut ctx = Context::builder(platform).partitions(2).build().unwrap();
    for i in 0..per_stream {
        for (s, dir) in dirs.iter().enumerate() {
            let buf = ctx.alloc(format!("t{i}s{s}"), 1 << 10); // 4 KiB
            let stream = ctx.stream(s).unwrap();
            match dir {
                micsim::Direction::HostToDevice => ctx.h2d(stream, buf).unwrap(),
                micsim::Direction::DeviceToHost => ctx.d2h(stream, buf).unwrap(),
            }
        }
    }
    let report = ctx
        .run_native_with(&NativeConfig {
            trace: true,
            link_bandwidth: Some(8.0e6),
            ..NativeConfig::default()
        })
        .unwrap();
    report.trace.unwrap()
}

#[test]
fn link_lane_serves_transfers_in_submission_order() {
    // Two streams fight for the one half-duplex lane. The lane is a FIFO
    // queue: whoever asked first is served first, so by lane order the
    // submission instants never go backwards and the streams alternate. A
    // lock that lets the releasing driver barge back in (a plain mutex)
    // bunches one stream's transfers and fails all three assertions.
    use micsim::Direction::HostToDevice;
    let trace = contended_link_trace(PlatformConfig::phi_31sp(), [HostToDevice; 2], 16);
    let mut lane: Vec<_> = trace
        .timeline
        .records
        .iter()
        .filter(|r| r.resource == Some(trace.kinds.links[0]))
        .collect();
    assert_eq!(lane.len(), 32);
    lane.sort_by_key(|r| r.start);
    for pair in lane.windows(2) {
        assert!(
            pair[0].ready <= pair[1].ready,
            "`{}` (queued {:?}) was served before `{}` (queued {:?})",
            trace.label(pair[0]),
            pair[0].ready,
            trace.label(pair[1]),
            pair[1].ready
        );
        assert!(
            pair[0].finish <= pair[1].start,
            "`{}` and `{}` held the lane together",
            trace.label(pair[0]),
            trace.label(pair[1])
        );
    }
    // Labels are `h2d b<id>`; even ids are stream 0's, odd ids stream 1's.
    let stream_of = |label: &str| label[5..].parse::<usize>().unwrap() % 2;
    let first_four: Vec<usize> = lane[..4]
        .iter()
        .map(|r| stream_of(&trace.label(r)))
        .collect();
    assert!(
        first_four.contains(&0) && first_four.contains(&1),
        "one stream monopolised the lane: {first_four:?}"
    );
}

#[test]
fn duplex_link_lanes_are_independent() {
    // Full duplex: H2D and D2H have a lane (and a lock) each, so stream 0's
    // uploads are served on one link lane and stream 1's downloads on the
    // other. That an upload holding its lane does not block a download's
    // acquire is asserted without timing, by a forced interleaving, in
    // `executor::native`'s lib test
    // `a_full_duplex_h2d_holder_does_not_block_a_d2h_acquire`; whether two
    // streams' spans meet in wall time depends on the host's scheduler.
    use micsim::Direction::{DeviceToHost, HostToDevice};
    let trace = contended_link_trace(
        PlatformConfig::phi_31sp_full_duplex(),
        [HostToDevice, DeviceToHost],
        8,
    );
    let lane = |c: usize| {
        trace
            .timeline
            .records
            .iter()
            .filter(|r| r.resource == Some(trace.kinds.links[c]))
            .count()
    };
    assert_eq!((lane(0), lane(1)), (8, 8));
}

#[test]
fn copy_queue_high_water_mark_counts_transfers_waiting_together() {
    // `streams` streams upload four 16 KiB buffers each. One stream queues
    // its copies one after another; four streams sharing a link throttled
    // to ~1 ms per copy queue behind whoever holds it.
    let hwm = |streams: usize, link_bandwidth: Option<f64>| {
        let mut ctx = small_ctx(streams);
        for s in 0..streams {
            let stream = ctx.stream(s).unwrap();
            for i in 0..4 {
                let buf = ctx.alloc(format!("s{s}t{i}"), 1 << 12);
                ctx.h2d(stream, buf).unwrap();
            }
        }
        let report = ctx
            .run_native_with(&NativeConfig {
                trace: true,
                link_bandwidth,
                ..NativeConfig::default()
            })
            .unwrap();
        report.trace.unwrap().counters.copy_queue_depth_hwm
    };
    let alone = hwm(1, Some(16.0e6));
    assert!(alone <= 1, "one stream queued {alone} copies at once");
    let shared = hwm(4, Some(16.0e6));
    assert!(shared >= 2, "four streams never queued together: {shared}");
}

#[test]
fn two_streams_hide_transfers_single_stream_does_not() {
    // Acceptance check (b): an overlappable 2-stream program measures a
    // strictly positive hidden fraction; the single-stream version of the
    // same work measures ~zero. Deterministic by construction: stream 0
    // launches a long kernel strictly after its transfer (event-ordered),
    // and stream 1's throttled transfer runs entirely inside that kernel's
    // window.
    let mut ctx = small_ctx(2);
    let a = ctx.alloc("a", 1 << 10);
    let b = ctx.alloc("b", 1 << 16); // 256 KiB -> ~5 ms at 50 MB/s
    let (s0, s1) = (ctx.stream(0).unwrap(), ctx.stream(1).unwrap());
    ctx.h2d(s0, a).unwrap();
    let e = ctx.record_event(s0).unwrap();
    ctx.kernel(
        s0,
        native_kernel("long")
            .reading([a])
            .with_native(|_| std::thread::sleep(Duration::from_millis(40))),
    )
    .unwrap();
    ctx.wait_event(s1, e).unwrap();
    ctx.h2d(s1, b).unwrap();
    let cfg = NativeConfig {
        trace: true,
        link_bandwidth: Some(50.0e6),
        ..NativeConfig::default()
    };
    let overlapped = ctx.run_native_with(&cfg).unwrap().trace.unwrap().overlap();
    assert!(
        overlapped.hidden_fraction() > 0.2,
        "2-stream overlap must hide the big transfer: {overlapped:?}"
    );

    // Same actions on one stream: FIFO order forbids overlap.
    let mut ctx = small_ctx(1);
    let a = ctx.alloc("a", 1 << 10);
    let b = ctx.alloc("b", 1 << 16);
    let s = ctx.stream(0).unwrap();
    ctx.h2d(s, a).unwrap();
    ctx.kernel(
        s,
        native_kernel("long")
            .reading([a])
            .with_native(|_| std::thread::sleep(Duration::from_millis(40))),
    )
    .unwrap();
    ctx.h2d(s, b).unwrap();
    let serial = ctx.run_native_with(&cfg).unwrap().trace.unwrap().overlap();
    assert!(
        serial.hidden_fraction() < 0.01,
        "single stream must not overlap: {serial:?}"
    );
}

#[test]
fn panicking_kernel_still_yields_partial_trace() {
    // A failed run's error carries whatever was recorded before the
    // failure — the partial trace of that run and no other.
    let mut ctx = small_ctx(1);
    let a = ctx.alloc("a", 1 << 10);
    let s = ctx.stream(0).unwrap();
    ctx.h2d(s, a).unwrap();
    ctx.kernel(s, native_kernel("ok").reading([a]).with_native(|_| {}))
        .unwrap();
    ctx.kernel(
        s,
        native_kernel("boom")
            .reading([a])
            .with_native(|_| panic!("boom")),
    )
    .unwrap();
    ctx.kernel(s, native_kernel("never").reading([a]).with_native(|_| {}))
        .unwrap();

    let failure = |cfg: &NativeConfig| match ctx.run_native_with(cfg).unwrap_err() {
        hstreams::Error::Run(failure) => failure,
        other => panic!("expected a failed run, got {other:?}"),
    };
    // Traced twice: each failure holds exactly its own run's spans.
    for _ in 0..2 {
        let failed = failure(&traced_cfg());
        assert!(matches!(
            failed.cause,
            hstreams::Error::PartitionLost { .. }
        ));
        let trace = failed.trace.expect("partial trace on the error path");
        let labels: Vec<String> = trace
            .timeline
            .records
            .iter()
            .map(|r| trace.label(r))
            .collect();
        // The failing kernel's span is recorded too — the Gantt names the
        // culprit. Skipped work after the panic is absent.
        assert_eq!(labels, ["h2d b0", "ok", "boom"]);
    }
    // An untraced failure after a traced one carries no trace at all.
    assert!(failure(&NativeConfig::default()).trace.is_none());
}

#[test]
fn pool_jobs_are_counted_when_kernels_chunk_work() {
    let mut ctx = small_ctx(1);
    let a = ctx.alloc("a", 1 << 12);
    let b = ctx.alloc("b", 1 << 12);
    let s = ctx.stream(0).unwrap();
    ctx.h2d(s, a).unwrap();
    ctx.kernel(
        s,
        native_kernel("par")
            .reading([a])
            .writing([b])
            .with_native(|k| {
                let parts = k.threads.max(2);
                let input = k.reads[0];
                hstreams::parallel::par_chunks_mut(k.writes[0], parts, |_, off, chunk| {
                    for (i, o) in chunk.iter_mut().enumerate() {
                        *o = input[off + i] + 1.0;
                    }
                });
            }),
    )
    .unwrap();
    let report = ctx.run_native_with(&traced_cfg()).unwrap();
    let trace = report.trace.unwrap();
    assert!(
        trace.counters.pool_jobs >= 1,
        "chunked kernel body must count a pool job: {:?}",
        trace.counters
    );
    // The pool span rides on the control lane with its part count.
    assert!(
        trace
            .timeline
            .records
            .iter()
            .any(|r| r.resource.is_none() && trace.label(r).starts_with("pool(")),
        "pool span missing"
    );
}

#[test]
fn traced_run_labels_kernel_and_transfer_spans() {
    let mut ctx = small_ctx(1);
    let a = ctx.alloc("a", 1 << 10);
    let s = ctx.stream(0).unwrap();
    ctx.h2d(s, a).unwrap();
    ctx.kernel(s, native_kernel("k").reading([a]).with_native(|_| {}))
        .unwrap();
    let report = ctx.run_native_with(&traced_cfg()).unwrap();
    let trace = report.trace.unwrap();
    assert!(trace.timeline.records.iter().any(|r| trace.label(r) == "k"));
    assert!(trace
        .timeline
        .records
        .iter()
        .any(|r| trace.label(r) == "h2d b0"));
}

/// The paper's Fig. 10 regime: `tiles` tiles of 64 elements over two
/// streams (h2d, kernel, d2h each — every kernel body well under a
/// microsecond), plus one host kernel so "device launches" and "all
/// launches" differ. Returns `(context, device kernels, transfers)`.
fn sub_microsecond_tiles(tiles: usize) -> (Context, u64, u64) {
    let mut ctx = small_ctx(2);
    for t in 0..tiles {
        let a = ctx.alloc(format!("a{t}"), 64);
        let b = ctx.alloc(format!("b{t}"), 64);
        let s = ctx.stream(t % 2).unwrap();
        ctx.h2d(s, a).unwrap();
        ctx.kernel(
            s,
            native_kernel(&format!("tile{t}"))
                .reading([a])
                .writing([b])
                .with_native(|k| {
                    for (o, i) in k.writes[0].iter_mut().zip(k.reads[0]) {
                        *o = i + 1.0;
                    }
                }),
        )
        .unwrap();
        ctx.d2h(s, b).unwrap();
    }
    let s0 = ctx.stream(0).unwrap();
    ctx.kernel(s0, native_kernel("on-host").on_host().with_native(|_| {}))
        .unwrap();
    (ctx, tiles as u64, 2 * tiles as u64)
}

fn partition_busy_sum_us(snap: &hstreams::MetricsSnapshot) -> f64 {
    (0..2)
        .map(|p| {
            snap.gauge(
                "partition_busy_us",
                hstreams::metrics::Labels::partition(0, p),
            )
        })
        .sum()
}

#[test]
fn metrics_alone_see_sub_microsecond_work_and_attach_no_trace() {
    let (ctx, device_kernels, transfers) = sub_microsecond_tiles(64);
    let report = ctx
        .run_native_with(&NativeConfig {
            metrics: true,
            ..NativeConfig::default()
        })
        .unwrap();
    let snap = report.metrics.as_ref().expect("metrics requested");
    // Busy time comes from exact span lengths, not from whole-microsecond
    // histogram sums that truncate every one of these kernels to zero.
    assert!(
        partition_busy_sum_us(snap) > 0.0,
        "64 sub-microsecond kernels must still add up to busy time"
    );
    assert_eq!(
        snap.histogram_merged("launch_overhead_us").count,
        device_kernels
    );
    assert_eq!(snap.histogram_merged("queue_wait_us").count, transfers);
    // The metrics switch selects an output, not a second trace.
    assert!(report.trace.is_none());
}

#[test]
fn trace_alone_counts_every_launch_and_attaches_no_metrics() {
    let (ctx, device_kernels, _) = sub_microsecond_tiles(64);
    let report = ctx.run_native_with(&traced_cfg()).unwrap();
    assert!(report.metrics.is_none());
    let trace = report.trace.expect("trace requested");
    // Host kernels launch too; only the per-partition instrument skips them.
    assert_eq!(trace.counters.launch_overhead.count, device_kernels + 1);
}

#[test]
fn metered_busy_time_is_the_traced_kernel_span_sum_to_the_nanosecond() {
    let (ctx, _, _) = sub_microsecond_tiles(64);
    let report = ctx
        .run_native_with(&NativeConfig {
            trace: true,
            metrics: true,
            ..NativeConfig::default()
        })
        .unwrap();
    let trace = report.trace.expect("trace requested");
    // kinds.partitions[0] is the host; the rest are the device partitions.
    let device_partitions = &trace.kinds.partitions[1..];
    let span_ns: u64 = trace
        .timeline
        .records
        .iter()
        .filter(|r| {
            r.resource
                .is_some_and(|res| device_partitions.contains(&res))
        })
        .map(|r| r.finish.since(r.start).nanos())
        .sum();
    let busy_us = partition_busy_sum_us(report.metrics.as_ref().expect("metrics requested"));
    assert!(span_ns > 0);
    assert_eq!((busy_us * 1e3).round() as u64, span_ns);
}

// ----- what a control span covers, and whose buffer a span lands in ---------

/// A kernel that only sleeps: long enough that a span covering it cannot be
/// mistaken for one that does not.
fn sleeping_kernel(label: &str) -> KernelDesc {
    native_kernel(label).with_native(|_| std::thread::sleep(Duration::from_millis(20)))
}

const MOST_OF_THE_SLEEP_NS: u64 = 15_000_000;

#[test]
fn wait_event_span_covers_its_wait() {
    let mut ctx = small_ctx(2);
    let (s0, s1) = (ctx.stream(0).unwrap(), ctx.stream(1).unwrap());
    ctx.kernel(s0, sleeping_kernel("slow")).unwrap();
    let e = ctx.record_event(s0).unwrap();
    ctx.wait_event(s1, e).unwrap();
    let trace = ctx.run_native_with(&traced_cfg()).unwrap().trace.unwrap();
    let wait = trace
        .timeline
        .records
        .iter()
        .find(|r| trace.label(r).starts_with("wait "))
        .expect("the wait is recorded");
    assert_eq!(wait.resource, None, "a wait holds no lane");
    let waited = (wait.finish - wait.start).nanos();
    assert!(waited >= MOST_OF_THE_SLEEP_NS, "waited {waited} ns");
}

/// Stream 0 sleeps in a kernel before the barrier, stream 1 comes straight
/// to it; `after` puts one more action behind the barrier on stream 1.
/// Returns the lengths of the two barrier spans, in nanoseconds.
fn barrier_spans_ns(after: bool) -> Vec<u64> {
    let mut ctx = small_ctx(2);
    let a = ctx.alloc("a", 16);
    let (s0, s1) = (ctx.stream(0).unwrap(), ctx.stream(1).unwrap());
    ctx.kernel(s0, sleeping_kernel("slow")).unwrap();
    ctx.barrier();
    if after {
        ctx.h2d(s1, a).unwrap();
    }
    let trace = ctx.run_native_with(&traced_cfg()).unwrap().trace.unwrap();
    trace
        .timeline
        .records
        .iter()
        .filter(|r| trace.label(r) == "barrier#0")
        .map(|r| {
            assert_eq!(r.resource, None, "a barrier holds no lane");
            (r.finish - r.start).nanos()
        })
        .collect()
}

#[test]
fn barrier_span_on_the_idle_stream_covers_the_other_streams_kernel() {
    for after in [true, false] {
        let spans = barrier_spans_ns(after);
        assert_eq!(spans.len(), 2, "one span per stream (after = {after})");
        let idle = spans.iter().max().unwrap();
        assert!(
            *idle >= MOST_OF_THE_SLEEP_NS,
            "idle stream's barrier lasted {idle} ns (after = {after})"
        );
    }
}

#[test]
fn a_panicked_kernel_skips_the_rest_of_its_stream_only() {
    // Stream 0 loses its kernel and skips what depends on it, stream 1
    // shares nothing with it and runs to the end.
    let mut ctx = small_ctx(2);
    let x = ctx.alloc("x", 1);
    let y = ctx.alloc("y", 1);
    ctx.write_host(x, &[3.0]).unwrap();
    let (s0, s1) = (ctx.stream(0).unwrap(), ctx.stream(1).unwrap());
    ctx.kernel(
        s0,
        native_kernel("boom")
            .writing([x])
            .with_native(|_| panic!("boom")),
    )
    .unwrap();
    ctx.d2h(s0, x).unwrap();
    ctx.kernel(
        s1,
        native_kernel("fine").writing([y]).with_native(|k| {
            k.writes[0][0] = 7.0;
        }),
    )
    .unwrap();
    ctx.d2h(s1, y).unwrap();
    let err = ctx.run_native().unwrap_err();
    assert!(
        matches!(err.cause(), hstreams::Error::PartitionLost { .. }),
        "{err}"
    );
    assert_eq!(ctx.read_host(y).unwrap(), vec![7.0], "stream 1 ran");
    // The skipped d2h would have copied the device's zero over it.
    assert_eq!(
        ctx.read_host(x).unwrap(),
        vec![3.0],
        "stream 0's d2h was skipped"
    );
}

#[test]
fn spans_are_keyed_by_stream_when_recorded_and_by_driver_when_scheduled() {
    // Two partitions with two streams each; all work is recorded on streams
    // 2 and 3 (both on partition 1). `queue_wait` is indexed like the span
    // buffers: a recorded run fills the entries of the streams that ran, a
    // scheduled run those of its (device, partition) drivers, 0 and 1.
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(2)
        .streams_per_partition(2)
        .build()
        .unwrap();
    for t in 0..8 {
        let a = ctx.alloc(format!("a{t}"), 256);
        let b = ctx.alloc(format!("b{t}"), 256);
        let s = ctx.stream(2 + t % 2).unwrap();
        ctx.h2d(s, a).unwrap();
        ctx.kernel(
            s,
            native_kernel(&format!("tile{t}"))
                .reading([a])
                .writing([b])
                .with_native(|k| k.writes[0].copy_from_slice(k.reads[0])),
        )
        .unwrap();
        ctx.d2h(s, b).unwrap();
    }
    // 1 KiB at 4 MB/s: the lane stays contended, so somebody queues.
    let cfg = NativeConfig {
        trace: true,
        link_bandwidth: Some(4.0e6),
        ..NativeConfig::default()
    };
    let recorded = ctx.run_native_with(&cfg).unwrap();
    let waits = recorded.trace.unwrap().counters.queue_wait;
    assert_eq!(waits.len(), 4);
    assert_eq!((waits[0], waits[1]), (Duration::ZERO, Duration::ZERO));
    assert!(waits[2] + waits[3] > Duration::ZERO, "{waits:?}");

    ctx.set_scheduler(hstreams::sched::SchedulerKind::ListHeft);
    let scheduled = ctx.run_native_with(&cfg).unwrap();
    assert!(
        scheduled.steals > 0,
        "the plan moved kernels to partition 0"
    );
    let waits = scheduled.trace.unwrap().counters.queue_wait;
    assert_eq!(waits.len(), 4);
    assert!(waits[0] + waits[1] > Duration::ZERO, "{waits:?}");
    assert_eq!((waits[2], waits[3]), (Duration::ZERO, Duration::ZERO));
}
