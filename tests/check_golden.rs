//! Golden analyzer outputs.
//!
//! Each cell is the FNV-1a fingerprint of everything the analyzer and the
//! consumers of its access table derive from one program: the rendered
//! [`CheckReport`] (findings in report order, with their messages and
//! related sites), the overlap summary, every [`TaskGraph`] predecessor and
//! successor list in node order (edge insertion order included), and what
//! the sync-elision optimizer does with the program (elided sites and the
//! certificate's pair counts). A change in how accesses are collected,
//! grouped or ordered, or in how the race, dataflow and resource checks
//! walk them, shows up here even when every finding is still "the same".
//!
//! Cells: the five tunable apps at two `(P, T)` each, and three hand-built
//! programs — a racy one (more races on one group than the report lists),
//! a two-device one (the host copy and two device instances of one buffer)
//! and a dataflow one (a kernel reading two unproduced buffers, a dead
//! event). On a mismatch the test prints the actual table in source form.
//!
//! A second table pins what the schedulers plan over that graph: every
//! [`ScheduledTask`](mic_streams::hstreams::sched::ScheduledTask) (site,
//! node, lane, start and finish bits, native driver, steal flag) of the
//! `ListHeft` and `WorkSteal` plans of the five apps, each at its larger
//! `(P, T)`. A driver hint names the partition of the first successor or
//! predecessor that has one, so this table also pins edge-list order.
//!
//! The SARIF export of three reports (clean, racy, perf lints) is checked
//! structurally, with no JSON parser: balanced brackets and strings, the
//! version, the sorted rule catalog, and every diagnostic's rule, level,
//! escaped message and `stream/<s>/action/<i>` sites in report order.

use std::fmt::Write as _;

use mic_streams::apps::tunable::{
    Tunable, TunableCf, TunableHbench, TunableKmeans, TunableMm, TunableNn,
};
use mic_streams::hstreams::action::Action;
use mic_streams::hstreams::check::sarif::to_sarif;
use mic_streams::hstreams::check::{analyze, CheckEnv, CheckReport, Severity, Site};
use mic_streams::hstreams::context::Context;
use mic_streams::hstreams::kernel::KernelDesc;
use mic_streams::hstreams::opt::{lint, optimize};
use mic_streams::hstreams::program::{EventSite, Program, StreamPlacement, StreamRecord};
use mic_streams::hstreams::sched::{SchedulerKind, TaskGraph};
use mic_streams::hstreams::testutil::{build_synced, fnv64, mix_kernel};
use mic_streams::hstreams::{BufId, EventId, StreamId};
use mic_streams::micsim::compute::KernelProfile;
use mic_streams::micsim::device::DeviceId;
use mic_streams::micsim::pcie::Direction;
use mic_streams::micsim::PlatformConfig;

/// The text a cell fingerprints.
fn derived(program: &Program, env: &CheckEnv) -> String {
    let analysis = analyze(program, env);
    let mut text = analysis.report.render();
    let overlap = analysis.overlap_summary();
    writeln!(
        text,
        "overlap {} {} {}",
        overlap.transfers, overlap.kernels, overlap.concurrent_transfer_kernel_pairs
    )
    .unwrap();
    match TaskGraph::build(program, &analysis) {
        None => text.push_str("graph: none\n"),
        Some(g) => {
            for (i, node) in g.nodes.iter().enumerate() {
                let (p, s) = (g.preds(i), g.succs(i));
                writeln!(text, "{i} {} <- {p:?} -> {s:?}", node.site).unwrap();
            }
        }
    }
    let opt = optimize(program, env).report;
    writeln!(
        text,
        "opt skipped={} reverted={} waits={:?} records={:?} barriers={} elided={}",
        opt.skipped,
        opt.reverted,
        opt.elided_waits,
        opt.elided_records,
        opt.elided_barriers,
        opt.elided_actions()
    )
    .unwrap();
    if let Some(c) = &opt.certificate {
        writeln!(
            text,
            "cert holds={} payload_pairs={} conflict_pairs={}",
            c.holds(),
            c.payload_pairs,
            c.conflict_pairs
        )
        .unwrap();
    }
    text
}

fn stream_on(id: usize, device: usize, partition: usize, actions: Vec<Action>) -> StreamRecord {
    StreamRecord {
        id: StreamId(id),
        placement: StreamPlacement {
            device: DeviceId(device),
            partition,
        },
        actions,
    }
}

fn h2d(buf: usize) -> Action {
    Action::Transfer {
        dir: Direction::HostToDevice,
        buf: BufId(buf),
    }
}

fn d2h(buf: usize) -> Action {
    Action::Transfer {
        dir: Direction::DeviceToHost,
        buf: BufId(buf),
    }
}

fn kernel(label: &str, reads: &[usize], writes: &[usize]) -> KernelDesc {
    KernelDesc::simulated(label, KernelProfile::streaming("k", 1e9), 1.0)
        .reading(reads.iter().map(|&b| BufId(b)))
        .writing(writes.iter().map(|&b| BufId(b)))
}

/// Two streams hammering `b0` and `b1` with no synchronization: far more
/// unordered pairs per group than the report's cap lists.
fn racy() -> Program {
    let mut p = Program::default();
    for s in 0..2 {
        let actions = (0..6)
            .map(|i| {
                let (r, w) = if i % 2 == 0 { (1, 0) } else { (0, 1) };
                Action::Kernel(kernel(&format!("k{s}.{i}"), &[r], &[w]))
            })
            .chain([h2d(0), d2h(1)])
            .collect();
        p.streams.push(stream_on(s, 0, s, actions));
    }
    p
}

/// One buffer on the host and on two cards: a host kernel produces `b0`,
/// both cards upload and read it (one host copy, two device instances),
/// and the host gathers both results — every conflict ordered by events.
fn two_device() -> Program {
    let mut p = Program::default();
    p.streams.push(stream_on(
        0,
        0,
        0,
        vec![
            Action::Kernel(kernel("init", &[], &[0]).on_host()),
            Action::RecordEvent(EventId(0)),
            Action::WaitEvent(EventId(1)),
            Action::WaitEvent(EventId(2)),
            Action::Kernel(kernel("gather", &[1, 2], &[3]).on_host()),
        ],
    ));
    for dev in 0..2 {
        p.streams.push(stream_on(
            1 + dev,
            dev,
            1 - dev,
            vec![
                Action::WaitEvent(EventId(0)),
                h2d(0),
                Action::Kernel(kernel(&format!("k{dev}"), &[0], &[1 + dev])),
                d2h(1 + dev),
                Action::RecordEvent(EventId(1 + dev)),
            ],
        ));
    }
    for (stream, action_index) in [(0, 1), (1, 4), (2, 4)] {
        p.events.push(EventSite {
            stream: StreamId(stream),
            action_index,
        });
    }
    p
}

/// A kernel reading two buffers nothing produced (listed out of buffer
/// order), a D2H of never-written device memory, and an event nobody
/// waits on.
fn dataflow() -> Program {
    let mut p = Program::default();
    p.streams.push(stream_on(
        0,
        0,
        0,
        vec![
            h2d(0),
            Action::Kernel(kernel("consume", &[3, 0, 1], &[2])),
            Action::RecordEvent(EventId(0)),
            Action::RecordEvent(EventId(1)),
            d2h(4),
        ],
    ));
    p.streams.push(stream_on(
        1,
        0,
        1,
        vec![
            Action::WaitEvent(EventId(0)),
            Action::Kernel(kernel("late", &[2], &[5])),
        ],
    ));
    for action_index in [2, 3] {
        p.events.push(EventSite {
            stream: StreamId(0),
            action_index,
        });
    }
    p
}

/// One tunable app and the two `(P, T)` it is pinned at.
type Pinned = (Box<dyn Tunable>, [(usize, usize); 2]);

fn apps() -> Vec<Pinned> {
    vec![
        (
            Box::new(TunableHbench::new(1 << 16, 8, None)),
            [(2, 4), (4, 16)],
        ),
        (Box::new(TunableMm::new(96, None)), [(2, 4), (4, 16)]),
        (Box::new(TunableCf::new(96, None)), [(2, 9), (4, 16)]),
        (Box::new(TunableNn::new(1 << 14, None)), [(2, 4), (7, 14)]),
        (
            Box::new(TunableKmeans::new(1 << 12, 4, 3, None)),
            [(2, 4), (4, 8)],
        ),
    ]
}

fn actual() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (mut app, points) in apps() {
        for (p, t) in points {
            let mut ctx = Context::builder(PlatformConfig::phi_31sp())
                .partitions(p)
                .build()
                .unwrap();
            app.record(&mut ctx, t).unwrap();
            let text = derived(ctx.program(), &ctx.check_env());
            out.push((format!("{}@p{p}t{t}", app.name()), fnv64(&text)));
        }
    }
    for (name, program) in [
        ("racy", racy()),
        ("two-device", two_device()),
        ("dataflow", dataflow()),
    ] {
        let text = derived(&program, &CheckEnv::permissive(&program));
        out.push((name.to_string(), fnv64(&text)));
    }
    out
}

const GOLDEN: &[(&str, u64)] = &[
    ("hbench@p2t4", 0xbc76c53cc82cd511),
    ("hbench@p4t16", 0xdd4ac34a9662500d),
    ("mm@p2t4", 0x02ced33ad3ff24bc),
    ("mm@p4t16", 0x11c2cea645cb141e),
    ("cf@p2t9", 0xe4085500942d59c0),
    ("cf@p4t16", 0x8838cf39ee37a234),
    ("nn@p2t4", 0xbc76c53cc82cd511),
    ("nn@p7t14", 0xb2554fe52f654ee5),
    ("kmeans@p2t4", 0x099e3fc52ba24913),
    ("kmeans@p4t8", 0x911d8127c95bc1e3),
    ("racy", 0x4adb29da3145ef1d),
    ("two-device", 0x8956301e0c5ee969),
    ("dataflow", 0xe3a93d8dacded657),
];

#[test]
fn analyzer_outputs_match_the_committed_fingerprints() {
    let actual = actual();
    let same = actual.len() == GOLDEN.len()
        && actual
            .iter()
            .zip(GOLDEN)
            .all(|((name, fp), (gname, gfp))| name == gname && fp == gfp);
    let mut table = String::from("actual table:\n");
    for (name, fp) in &actual {
        writeln!(table, "    (\"{name}\", 0x{fp:016x}),").unwrap();
    }
    assert!(same, "{table}");
}

/// Fingerprints of the scheduled plans: per app at its larger `(P, T)`,
/// the `ListHeft` plan then the `WorkSteal` one.
fn actual_schedules() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (mut app, [_, (p, t)]) in apps() {
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(p)
            .build()
            .unwrap();
        app.record(&mut ctx, t).unwrap();
        for kind in [SchedulerKind::ListHeft, SchedulerKind::WorkSteal] {
            ctx.set_scheduler(kind);
            let plan = ctx.plan_schedule().expect("the apps are analyzer-clean");
            let mut text = String::new();
            for task in &plan.tasks {
                writeln!(
                    text,
                    "{} {} {} {:016x} {:016x} {:?} {}",
                    task.site,
                    task.node,
                    task.lane,
                    task.start.to_bits(),
                    task.finish.to_bits(),
                    task.driver,
                    task.stolen
                )
                .unwrap();
            }
            out.push((format!("{kind}:{}@p{p}t{t}", app.name()), fnv64(&text)));
        }
    }
    out
}

const SCHEDULES: &[(&str, u64)] = &[
    ("heft:hbench@p4t16", 0xd58cf93c1134ae78),
    ("steal:hbench@p4t16", 0x71cffc4405a9092c),
    ("heft:mm@p4t16", 0xe496729b1e892d51),
    ("steal:mm@p4t16", 0xc44fa2ea9262cdde),
    ("heft:cf@p4t16", 0xab2c8649960b92aa),
    ("steal:cf@p4t16", 0x3833b530c447562d),
    ("heft:nn@p7t14", 0x7071e9b531b4dffc),
    ("steal:nn@p7t14", 0xfb9fb7a305bd39a0),
    ("heft:kmeans@p4t8", 0xd32ed236c4c26336),
    ("steal:kmeans@p4t8", 0x09352a00c465006a),
];

#[test]
fn scheduled_tasks_match_the_committed_fingerprints() {
    let actual = actual_schedules();
    let same = actual.len() == SCHEDULES.len()
        && actual
            .iter()
            .zip(SCHEDULES)
            .all(|((name, fp), (gname, gfp))| name == gname && fp == gfp);
    let mut table = String::from("actual table:\n");
    for (name, fp) in &actual {
        writeln!(table, "    (\"{name}\", 0x{fp:016x}),").unwrap();
    }
    assert!(same, "{table}");
}

/// Byte offset just past the first `needle` at or after `from`.
fn find_after(doc: &str, from: usize, needle: &str) -> usize {
    match doc[from..].find(needle) {
        Some(i) => from + i + needle.len(),
        None => panic!("`{needle}` not found after offset {from} in {doc}"),
    }
}

/// Every `{`/`[` outside a string literal closes in order, every string
/// literal closes, and nothing follows the top-level object.
fn assert_balanced(doc: &str) {
    let mut open = Vec::new();
    let (mut in_string, mut escaped) = (false, false);
    for (i, c) in doc.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => open.push(c),
            '}' | ']' => {
                let want = if c == '}' { '{' } else { '[' };
                assert_eq!(open.pop(), Some(want), "unmatched `{c}` at {i} in {doc}");
                assert!(
                    !open.is_empty() || i + 1 == doc.len(),
                    "content after the document at {i}: {doc}"
                );
            }
            _ => {}
        }
    }
    assert!(!in_string, "unterminated string in {doc}");
    assert!(open.is_empty(), "unclosed {open:?} in {doc}");
}

/// The export of `report` carries every field a CI annotator reads, in
/// report order.
fn assert_sarif_structure(report: &CheckReport) {
    let doc = to_sarif(report);
    assert_eq!(doc, to_sarif(report), "export is deterministic");
    assert_balanced(&doc);
    assert!(doc.starts_with(r#"{"version":"2.1.0","#), "{doc}");
    let mut rules: Vec<&str> = report.diagnostics.iter().map(|d| d.code.name()).collect();
    rules.sort_unstable();
    rules.dedup();
    let catalog: Vec<String> = rules.iter().map(|r| format!(r#"{{"id":"{r}"}}"#)).collect();
    let mut at = find_after(
        &doc,
        0,
        &format!(
            r#""driver":{{"name":"stream-check","rules":[{}]}}"#,
            catalog.join(",")
        ),
    );
    let site = |s: Site| {
        format!(
            r#""fullyQualifiedName":"stream/{}/action/{}""#,
            s.stream.0, s.action_index
        )
    };
    for d in &report.diagnostics {
        let level = match d.code.severity() {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        // A Rust string literal escapes the printable-ASCII messages the
        // way JSON does.
        at = find_after(&doc, at, &format!(r#""ruleId":"{}""#, d.code.name()));
        at = find_after(&doc, at, &format!(r#""level":"{level}""#));
        at = find_after(
            &doc,
            at,
            &format!(r#""message":{{"text":{:?}}}"#, d.message),
        );
        for &s in std::iter::once(&d.site).chain(&d.related) {
            at = find_after(&doc, at, &site(s));
        }
    }
    assert_eq!(
        doc.matches(r#""ruleId":"#).count(),
        report.diagnostics.len(),
        "one result per diagnostic"
    );
    assert_eq!(
        doc.matches(r#""fullyQualifiedName":"#).count(),
        report
            .diagnostics
            .iter()
            .map(|d| 1 + d.related.len())
            .sum::<usize>(),
        "one location per site"
    );
}

#[test]
fn sarif_exports_carry_every_diagnostic_field_in_report_order() {
    // Clean: no results, an empty rule catalog.
    let p = build_synced(3, &[(0, 0), (1, 1)]);
    let clean = analyze(&p, &CheckEnv::permissive(&p)).report;
    assert_eq!(clean.error_count(), 0);
    assert_sarif_structure(&clean);

    // Racy: two kernels conflict on b0 with no synchronization; the race
    // diagnostics carry the opposing site as a related location.
    let mut p = Program::default();
    let kernels = [
        mix_kernel("w", [], [BufId(0)], 1.0),
        mix_kernel("r", [BufId(0)], [BufId(1)], 1.0),
    ];
    for (pos, k) in kernels.into_iter().enumerate() {
        p.streams
            .push(stream_on(pos, 0, pos, vec![Action::Kernel(k)]));
    }
    let racy = analyze(&p, &CheckEnv::permissive(&p)).report;
    assert!(racy.error_count() > 0, "unsynced conflict must error");
    assert!(
        racy.diagnostics.iter().any(|d| !d.related.is_empty()),
        "race diagnostics carry related sites"
    );
    assert_sarif_structure(&racy);

    // Lints: a duplicated wait is a perf-class redundant-sync warning.
    let mut p = build_synced(3, &[(0, 0), (1, 1)]);
    let (si, ai, e) = p
        .streams
        .iter()
        .enumerate()
        .find_map(|(si, s)| {
            s.actions.iter().enumerate().find_map(|(ai, a)| match a {
                Action::WaitEvent(e) => Some((si, ai, *e)),
                _ => None,
            })
        })
        .expect("build_synced waits on its conflicts");
    p.insert_action(StreamId(si), ai + 1, Action::WaitEvent(e));
    let lints = lint(&p, &CheckEnv::permissive(&p), None);
    assert!(
        lints
            .diagnostics
            .iter()
            .any(|d| d.code.name() == "redundant-sync"),
        "duplicate wait must lint: {}",
        lints.render()
    );
    assert_eq!(lints.error_count(), 0, "lints are advisory");
    assert_sarif_structure(&lints);
}
