//! Property tests for the sync-elision optimizer ([`hstreams::opt`]).
//!
//! [`build_synced`] programs are already minimal by construction: records
//! and waits are appended in global conflict order, so a redundant wait
//! would need a happens-before path that re-enters an earlier FIFO
//! position — impossible — and every event has exactly one waiter. That
//! makes them the perfect probe for both directions of the contract:
//!
//! * **no false elisions** — the optimizer must return the program
//!   byte-identical (every wait is load-bearing, every record is live);
//! * **no missed elisions** — duplicating any subset of waits injects
//!   redundancy the optimizer must remove *exactly*, restoring the
//!   pristine program.
//!
//! Either way the output must re-analyze clean, keep the happens-before
//! closure over conflicting pairs (checked independently via
//! [`certify`]), and execute to the same bits under the reference
//! interpreter. Racy inputs (one wait dropped) must come back untouched
//! with [`OptReport::skipped`] set — elision never papers over a program
//! the analyzer rejects.

use hstreams::action::Action;
use hstreams::check::{analyze, CheckEnv, Site};
use hstreams::context::Context;
use hstreams::kernel::KernelDesc;
use hstreams::opt::{certify, optimize};
use hstreams::program::Program;
use hstreams::testutil::{build_chained, build_synced, drop_one_wait, mix_kernel, RefExec};
use hstreams::types::{BufId, StreamId};
use micsim::compute::KernelProfile;
use micsim::PlatformConfig;
use proptest::prelude::*;

/// Duplicate every `WaitEvent` in place (each copy directly after its
/// original), returning the oversynchronized program and how many waits
/// were injected. Each copy is trivially redundant: the record reaches it
/// through the original wait plus one FIFO hop.
fn duplicate_all_waits(p: &Program) -> (Program, usize) {
    let mut out = p.clone();
    let mut injected = 0usize;
    for si in 0..out.streams.len() {
        let mut ai = 0;
        while ai < out.streams[si].actions.len() {
            if let Action::WaitEvent(e) = out.streams[si].actions[ai] {
                out.insert_action(StreamId(si), ai + 1, Action::WaitEvent(e));
                injected += 1;
                ai += 2;
            } else {
                ai += 1;
            }
        }
    }
    (out, injected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn already_minimal_programs_come_back_byte_identical(
        n_streams in 2usize..5,
        conflicts in proptest::collection::vec((0usize..16, 0usize..16), 1..8),
    ) {
        let program = build_synced(n_streams, &conflicts);
        let env = CheckEnv::permissive(&program);
        let opt = optimize(&program, &env);

        prop_assert!(!opt.report.skipped, "clean input must be optimized");
        prop_assert!(!opt.report.reverted);
        prop_assert_eq!(
            opt.report.elided_actions(), 0,
            "every wait is load-bearing and every record is live: {:?}",
            opt.report
        );
        prop_assert_eq!(
            format!("{:?}", opt.program),
            format!("{:?}", program),
            "zero elisions must mean byte-identical output"
        );
        let cert = opt.report.certificate.as_ref().expect("optimized run carries a certificate");
        prop_assert!(cert.holds(), "certificate must verify: {cert:?}");
    }

    #[test]
    fn injected_redundant_waits_are_all_elided(
        n_streams in 2usize..5,
        conflicts in proptest::collection::vec((0usize..16, 0usize..16), 1..8),
    ) {
        let pristine = build_synced(n_streams, &conflicts);
        let (oversynced, injected) = duplicate_all_waits(&pristine);
        oversynced.validate().expect("duplicated waits stay structurally valid");
        let env = CheckEnv::permissive(&oversynced);
        prop_assert!(analyze(&oversynced, &env).report.is_clean());

        let opt = optimize(&oversynced, &env);
        prop_assert!(!opt.report.skipped && !opt.report.reverted);
        prop_assert_eq!(
            opt.report.elided_waits.len(), injected,
            "all {} injected duplicates are redundant, nothing else is: {:?}",
            injected, opt.report
        );
        prop_assert_eq!(opt.report.elided_records.len(), 0);
        prop_assert_eq!(opt.report.elided_barriers, 0);
        prop_assert_eq!(
            format!("{:?}", opt.program),
            format!("{:?}", pristine),
            "removing exactly the duplicates restores the pristine program"
        );

        // The certificate's closure claim, re-derived from the two
        // programs alone — independent of the transformation's bookkeeping.
        let cert = certify(&oversynced, &opt.program, &env);
        prop_assert!(cert.holds(), "independent certify must agree: {cert:?}");
        prop_assert!(cert.conflict_pairs > 0, "generator always makes conflicts");

        // And the behavioral claim: same bits under the reference
        // interpreter.
        let lens = vec![4usize; 2 * conflicts.len()];
        let a = RefExec::run_fifo(&oversynced, &lens).expect("clean program runs");
        let b = RefExec::run_fifo(&opt.program, &lens).expect("optimized program runs");
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        prop_assert_eq!(a.host_bits(), b.host_bits());
    }

    #[test]
    fn racy_inputs_are_refused_untouched(
        n_streams in 2usize..5,
        conflicts in proptest::collection::vec((0usize..16, 0usize..16), 1..8),
        pick in any::<proptest::sample::Index>(),
    ) {
        let broken = drop_one_wait(&build_synced(n_streams, &conflicts), pick.index(conflicts.len()));
        let env = CheckEnv::permissive(&broken);
        let opt = optimize(&broken, &env);
        prop_assert!(opt.report.skipped, "unclean input must be skipped, not optimized");
        prop_assert_eq!(opt.report.elided_actions(), 0);
        prop_assert!(opt.report.certificate.is_none());
        prop_assert_eq!(format!("{:?}", opt.program), format!("{:?}", broken));
    }

    /// Soundness of the static bound, with zero slack: tile chains,
    /// event-ordered conflicts and — as in CF, the only catalog app with
    /// one — a `d2h → host kernel → h2d` round trip whose host body is not
    /// a whole number of nanoseconds, so a bound priced by anything but
    /// the simulator's own (rounded) price list overshoots.
    #[test]
    fn static_bound_never_exceeds_the_simulated_makespan(
        first in 1usize..4,
        others in proptest::collection::vec(0usize..3, 1..4),
        conflicts in proptest::collection::vec((0usize..16, 0usize..16), 0..3),
        host_tenths_ns in 1usize..50_000,
        host_kernels in 1usize..40,
    ) {
        // Often stream 0 runs alone: the bound is then tight, and any
        // drift between it and the simulator shows.
        let tiles: Vec<usize> = std::iter::once(first).chain(others).collect();
        let chain_bufs = 2 * tiles.iter().sum::<usize>();
        let mut program = build_chained(&tiles, &conflicts, tiles.len(), chain_bufs);
        // Stream 0 ends its first chain with `d2h b1`: factor b1 on the
        // host, `host_kernels` times over, and send it back.
        let cfg = PlatformConfig::phi_31sp();
        let work = host_tenths_ns as f64 * 0.1e-9 * 1.0e9 * cfg.host_equivalents;
        for i in 0..host_kernels {
            let k = mix_kernel(format!("potrf{i}"), [], [BufId(1)], work).on_host();
            program.streams[0].actions.push(Action::Kernel(k));
        }
        program.streams[0].actions.push(Action::Transfer {
            dir: micsim::pcie::Direction::HostToDevice,
            buf: BufId(1),
        });

        let mut ctx = Context::builder(cfg).partitions(tiles.len()).build().unwrap();
        for b in 0..chain_bufs + conflicts.len() {
            ctx.alloc(format!("b{b}"), 64);
        }
        ctx.install_program(program).unwrap();
        let bound = ctx.static_cost().expect("clean program prices").makespan_lower_bound;
        let makespan = ctx.run_sim().unwrap().makespan().as_secs_f64();
        prop_assert!(bound > 0.0);
        prop_assert!(
            bound <= makespan,
            "bound {:.1} ns > makespan {:.1} ns", bound * 1e9, makespan * 1e9
        );
    }
}

#[test]
fn single_duplicate_wait_maps_sites_through_the_report() {
    let pristine = build_synced(2, &[(0, 0), (1, 0)]);
    // Duplicate only the first wait; the optimizer scans stream order, so
    // the original (earlier, load-bearing) copy survives and the elided
    // site is the injected one.
    let mut over = pristine.clone();
    let (si, ai, e) = over
        .streams
        .iter()
        .enumerate()
        .find_map(|(si, s)| {
            s.actions.iter().enumerate().find_map(|(ai, a)| match a {
                Action::WaitEvent(e) => Some((si, ai, *e)),
                _ => None,
            })
        })
        .expect("generator emits waits");
    over.insert_action(StreamId(si), ai + 1, Action::WaitEvent(e));

    let env = CheckEnv::permissive(&over);
    let opt = optimize(&over, &env);
    assert_eq!(opt.report.elided_waits, vec![Site::new(si, ai + 1)]);
    assert_eq!(opt.report.map_site(Site::new(si, ai + 1)), None);
    assert_eq!(
        opt.report.map_site(Site::new(si, ai)),
        Some(Site::new(si, ai)),
        "actions before the elision keep their index"
    );
    // An action after the elided one shifts down by one.
    assert_eq!(
        opt.report.map_site(Site::new(si, ai + 2)),
        Some(Site::new(si, ai + 1))
    );
}

#[test]
fn dead_records_are_elided() {
    let pristine = build_synced(2, &[(0, 0)]);
    let mut p = pristine.clone();
    let end = p.streams[0].actions.len();
    p.insert_record_event(StreamId(0), end);
    let env = CheckEnv::permissive(&p);

    // A record nobody waits on is the analyzer's DeadEvent *warning*, not
    // an error — the program still analyzes clean and the optimizer
    // removes the record.
    let opt = optimize(&p, &env);
    assert!(
        !opt.report.skipped,
        "dead record is a warning, not an error"
    );
    assert_eq!(opt.report.elided_records, vec![Site::new(0, end)]);
    assert_eq!(format!("{:?}", opt.program), format!("{:?}", pristine));
}

#[test]
fn adjacent_barriers_collapse_but_the_load_bearing_one_survives() {
    use hstreams::testutil::stream_skeleton;

    // s0 produces buffer 0; two back-to-back barriers; s1 consumes it.
    // Exactly one barrier is implied by the other — and exactly one is
    // load-bearing, so the optimizer must remove one and keep one.
    let mut p = stream_skeleton(2, 2);
    p.streams[0].actions.push(Action::Transfer {
        dir: micsim::pcie::Direction::HostToDevice,
        buf: BufId(0),
    });
    p.streams[0]
        .actions
        .push(Action::Kernel(mix_kernel("w", [], [BufId(0)], 1.0)));
    for s in 0..2 {
        p.streams[s].actions.push(Action::Barrier(0));
        p.streams[s].actions.push(Action::Barrier(1));
    }
    p.barriers = 2;
    p.streams[1]
        .actions
        .push(Action::Kernel(mix_kernel("r", [BufId(0)], [BufId(1)], 1.0)));
    p.validate().expect("barrier program is well-formed");

    let env = CheckEnv::permissive(&p);
    assert!(analyze(&p, &env).report.is_clean());
    let opt = optimize(&p, &env);
    assert!(!opt.report.skipped && !opt.report.reverted);
    assert_eq!(opt.report.elided_barriers, 1, "{:?}", opt.report);
    assert_eq!(opt.program.barriers, 1);
    let cert = opt.report.certificate.as_ref().unwrap();
    assert!(cert.holds(), "{cert:?}");
    // Removing the survivor too would race the producer/consumer pair.
    assert!(analyze(&opt.program, &env).report.is_clean());
}

#[test]
fn static_bound_is_sound_on_host_kernel_chains() {
    // 200 host kernels of 1000.4 ns each on one stream. The simulator
    // rounds every body to whole nanoseconds (1000 ns), so a bound summed
    // from unrounded prices overshoots it by 200 x 0.4 ns = 80 ns — and a
    // lower bound that exceeds the makespan prunes winners in the tuner.
    // No slack: bound and makespan are the same integer-nanosecond sums.
    let cfg = PlatformConfig::phi_31sp();
    let rate = 1.0e9;
    let work = 1000.4e-9 * rate * cfg.host_equivalents;
    let mut ctx = Context::builder(cfg).build().unwrap();
    let s = ctx.stream(0).unwrap();
    for i in 0..200 {
        let k = KernelDesc::simulated(format!("h{i}"), KernelProfile::streaming("h", rate), work);
        ctx.kernel(s, k.on_host()).unwrap();
    }
    let bound = ctx.static_cost().unwrap().makespan_lower_bound;
    let makespan = ctx.run_sim().unwrap().makespan().as_secs_f64();
    assert!(
        bound <= makespan,
        "static bound {:.1} ns exceeds the simulated makespan {:.1} ns",
        bound * 1e9,
        makespan * 1e9
    );
}
