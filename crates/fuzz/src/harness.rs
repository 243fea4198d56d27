//! The four-oracle differential harness.
//!
//! [`Harness::run_case`] runs one genome through the static checker, the
//! simulator, the [sync-elision optimizer](hstreams::opt), and (on `full`
//! runs) the native executor plus the [`RefExec`] reference interpreter,
//! enforcing both directions of the contract:
//!
//! * **clean** (no error diagnostics): the simulator must price the
//!   program twice with byte-identical metric exports; the native
//!   executor must run it twice with bit-identical buffer contents, agree
//!   bit-for-bit with the reference interpreter, and export the same
//!   metric catalog the simulator does; a spliced fault plan must resolve
//!   to the same outcome class (recovered / fault / partition lost /
//!   kernel panicked) on both executors, under the genome's scheduler;
//! * **rejected** (error diagnostics): both executors must refuse with a
//!   checker report, and the diagnostic's
//!   [witness](hstreams::check::HazardWitness) must be demonstrable — a
//!   deadlock witness wedges the FIFO interpretation, a race witness's
//!   two schedules replay with the racing pair in both orders.
//!
//! The optimizer oracle rides both directions: a clean genome must
//! optimize with a holding equivalence [certificate](hstreams::opt::Certificate),
//! interpret to the same reference state as the original, re-install and
//! simulate clean, and (on `full` runs, when anything was elided) leave
//! bit-identical native buffers; a rejected genome must come back from
//! the optimizer untouched.
//!
//! Any violation is a [`Disagreement`], tagged with a stable class name
//! that shrinking preserves. Contexts are cached per geometry — every
//! genome addresses the same fixed buffer palette, so one context serves
//! arbitrarily many cases, and [`Context::zero_buffers`] resets state
//! between native runs.

use std::collections::{BTreeMap, BTreeSet};

use hstreams::check::WitnessKind;
use hstreams::context::Context;
use hstreams::testutil::RefExec;
use hstreams::types::{BufId, Error};
use hstreams::NativeConfig;
use micsim::PlatformConfig;

use crate::genome::{buf_len, buf_lens, ProgramSpec, N_BUFS};
use crate::signals::{
    check_signals, fault_signals, metrics_signals, overlap_signals, sched_signals,
};

/// A violated oracle contract: `class` is stable across shrinking (the
/// reproducer must fail the same way), `detail` is for humans.
#[derive(Clone, Debug)]
pub struct Disagreement {
    /// Stable class, e.g. `native-ref-divergence`, `witness-deadlock-completed`.
    pub class: String,
    /// Human-readable specifics.
    pub detail: String,
}

/// Everything one case produced: its coverage signals, whether the
/// checker rejected it, and the first contract violation (if any).
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    /// Coverage signals for corpus retention.
    pub signals: BTreeSet<String>,
    /// The checker found error-severity diagnostics.
    pub rejected: bool,
    /// First contract violation observed, if any.
    pub disagreement: Option<Disagreement>,
}

/// Geometry-keyed context cache plus the differential logic.
pub struct Harness {
    ctxs: BTreeMap<(usize, usize), Context>,
}

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

impl Harness {
    /// An empty harness; contexts are built lazily per geometry.
    pub fn new() -> Harness {
        Harness {
            ctxs: BTreeMap::new(),
        }
    }

    /// Run one genome through the oracles. `full` additionally runs the
    /// native executor (twice), the reference interpreter, metric-catalog
    /// parity and fault-outcome agreement; without it only the cheap
    /// oracles (checker + simulator) run — the fuzzer's inner loop.
    pub fn run_case(&mut self, spec: &ProgramSpec, full: bool) -> CaseOutcome {
        let partitions = spec.partitions.max(1);
        let spp = spec.streams_per_partition();
        let ctx = self
            .ctxs
            .entry((partitions, spp))
            .or_insert_with(|| build_ctx(partitions, spp));
        run_case_in(ctx, spec, full)
    }
}

fn build_ctx(partitions: usize, spp: usize) -> Context {
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(partitions)
        .streams_per_partition(spp)
        .build()
        .expect("fuzz geometry is within platform limits");
    for i in 0..N_BUFS {
        ctx.alloc(format!("b{i}"), buf_len(i));
    }
    ctx
}

/// Outcome class of an executor result, for class-level agreement: both
/// executors must surface a hazard as the same kind of typed error — an
/// injected device-kernel panic as a lost partition, a host-kernel panic
/// as a panicked kernel — though the details (which partition a scheduled
/// kernel ran on) may differ. A failed native run is classified by its
/// cause.
fn error_class(e: &Error) -> &'static str {
    match e.cause() {
        Error::Check(_) => "check",
        Error::Fault { .. } => "fault",
        Error::PartitionLost { .. } => "partition-lost",
        Error::KernelPanicked { .. } => "kernel-panicked",
        Error::MissingNativeBody { .. } => "native-body",
        Error::UnknownBuffer(_) | Error::UnknownEvent(_) | Error::UnknownStream(_) => "unknown-ref",
        Error::Config(_) => "config",
        _ => "other",
    }
}

fn run_case_in(ctx: &mut Context, spec: &ProgramSpec, full: bool) -> CaseOutcome {
    let program = spec.to_program();
    let mut signals: BTreeSet<String> = BTreeSet::new();
    let mut disagreement: Option<Disagreement> = None;
    let disagree = |d: &mut Option<Disagreement>, class: &str, detail: String| {
        if d.is_none() {
            *d = Some(Disagreement {
                class: class.to_string(),
                detail,
            });
        }
    };

    ctx.set_scheduler(spec.scheduler);
    if let Err(e) = ctx.install_program(program.clone()) {
        // Repair guarantees validity, so installation failures are
        // structural coverage, not contract violations.
        signals.insert(format!("check:install-{}", error_class(&e)));
        return CaseOutcome {
            signals,
            rejected: true,
            disagreement: None,
        };
    }

    let analysis = ctx.analyze();
    signals.extend(check_signals(&analysis.report));
    signals.extend(sched_signals(spec.scheduler, ctx.plan_schedule().as_ref()));
    let summary = analysis.overlap_summary();
    let mut hidden_fraction = None;
    let rejected = analysis.report.error_count() > 0;

    if !rejected {
        // ---- clean direction: both executors run, deterministically ----
        match ctx.run_sim() {
            Err(e) => disagree(
                &mut disagreement,
                "clean-sim-refused",
                format!("checker passed but sim failed: {e:?}"),
            ),
            Ok(s1) => {
                hidden_fraction = Some(s1.overlap().hidden_fraction());
                signals.extend(metrics_signals(&s1.metrics()));
                match ctx.run_sim() {
                    Err(e) => disagree(
                        &mut disagreement,
                        "sim-nondeterminism",
                        format!("second sim run failed: {e:?}"),
                    ),
                    Ok(s2) => {
                        let same_makespan = s1.makespan() == s2.makespan();
                        let same_metrics = s1.metrics().to_jsonl() == s2.metrics().to_jsonl();
                        if !same_makespan || !same_metrics {
                            disagree(
                                &mut disagreement,
                                "sim-nondeterminism",
                                format!(
                                    "repeat sim diverged (makespan {:?} vs {:?})",
                                    s1.makespan(),
                                    s2.makespan()
                                ),
                            );
                        }
                    }
                }
                if full && disagreement.is_none() {
                    native_differential(ctx, spec, &program, &s1, &mut signals, &mut disagreement);
                }
            }
        }
        // ---- fault-outcome agreement -------------------------------------
        if let Some(f) = spec.fault {
            // The context is cached across cases: the plan is lifted again
            // below, before anything else runs.
            ctx.set_fault_plan(Some(f.to_plan()));
            let sim_class = match ctx.run_sim() {
                Ok(_) => "ok",
                Err(e) => error_class(&e),
            };
            signals.insert(format!("fault:sim:{sim_class}"));
            if full {
                ctx.zero_buffers();
                let native = ctx.run_native();
                let native_class = match &native {
                    Ok(_) => "ok",
                    Err(e) => error_class(e),
                };
                if let Ok(r) = &native {
                    signals.extend(fault_signals(&r.faults));
                }
                if sim_class != native_class {
                    disagree(
                        &mut disagreement,
                        "fault-divergence",
                        format!(
                            "fault {:?}: sim outcome {sim_class}, native outcome {native_class}",
                            f.site
                        ),
                    );
                }
                ctx.zero_buffers();
            }
            ctx.set_fault_plan(None);
        }
    } else {
        // ---- rejected direction: both refuse, and the claim replays ----
        match ctx.run_sim() {
            Err(Error::Check(_)) => {
                signals.insert("reject:sim".to_string());
            }
            Err(e) => disagree(
                &mut disagreement,
                "reject-sim-class",
                format!("checker rejected but sim failed as {:?}", error_class(&e)),
            ),
            Ok(_) => disagree(
                &mut disagreement,
                "rejected-sim-ran",
                "checker rejected the program but the simulator executed it".to_string(),
            ),
        }
        if full {
            ctx.zero_buffers();
            match ctx.run_native() {
                Err(Error::Check(_)) => {
                    signals.insert("reject:native".to_string());
                }
                Err(e) => disagree(
                    &mut disagreement,
                    "reject-native-class",
                    format!(
                        "checker rejected but native failed as {:?}",
                        error_class(&e)
                    ),
                ),
                Ok(_) => disagree(
                    &mut disagreement,
                    "rejected-native-ran",
                    "checker rejected the program but the native executor ran it".to_string(),
                ),
            }
            ctx.zero_buffers();
        }
        if let Some(diag) = analysis.report.errors().next() {
            let w = analysis.witness(diag);
            let lens = buf_lens();
            match &w.kind {
                WitnessKind::Deadlock { cycle } => match RefExec::run_fifo(&program, &lens) {
                    Err(_) => {
                        signals.insert("witness:deadlock-wedged".to_string());
                    }
                    Ok(_) => disagree(
                        &mut disagreement,
                        "witness-deadlock-completed",
                        format!(
                            "deadlock claimed on cycle {cycle:?} but FIFO interpretation completed"
                        ),
                    ),
                },
                WitnessKind::Race {
                    a,
                    b,
                    order_ab,
                    order_ba,
                } => {
                    let total = program.action_count();
                    if order_ab.len() == total && order_ba.len() == total {
                        let pos = |order: &[hstreams::check::Site],
                                   s: &hstreams::check::Site|
                         -> Option<usize> {
                            order.iter().position(|x| x == s)
                        };
                        let ab_ok = pos(order_ab, a) < pos(order_ab, b);
                        let ba_ok = pos(order_ba, b) < pos(order_ba, a);
                        if !(ab_ok && ba_ok && pos(order_ab, a).is_some()) {
                            disagree(
                                &mut disagreement,
                                "witness-order-invalid",
                                format!("race witness orders do not bracket the pair {a} / {b}"),
                            );
                        } else {
                            let sab = RefExec::run_order(&program, &lens, order_ab);
                            let sba = RefExec::run_order(&program, &lens, order_ba);
                            if sab.fingerprint() != sba.fingerprint() {
                                signals.insert("witness:race-observable".to_string());
                            } else {
                                signals.insert("witness:race-benign".to_string());
                            }
                        }
                    } else {
                        // Cyclic graph elsewhere: the orders are partial by
                        // construction; the deadlock diagnostic carries the
                        // executable witness instead.
                        signals.insert("witness:race-partial".to_string());
                    }
                }
                WitnessKind::Structural => {
                    signals.insert("witness:structural".to_string());
                }
            }
        }
    }

    opt_oracle(
        ctx,
        &program,
        rejected,
        full,
        &mut signals,
        &mut disagreement,
    );

    signals.extend(overlap_signals(&summary, hidden_fraction));
    CaseOutcome {
        signals,
        rejected,
        disagreement,
    }
}

/// The fourth oracle: the sync-elision optimizer must be provably
/// semantics-preserving on clean genomes and must refuse rejected ones
/// untouched. Runs last so fault-plan agreement still sees the original
/// program's sites; leaves the optimized program installed on the cheap
/// tier (every case re-installs its own program first).
fn opt_oracle(
    ctx: &mut Context,
    program: &hstreams::program::Program,
    rejected: bool,
    full: bool,
    signals: &mut BTreeSet<String>,
    disagreement: &mut Option<Disagreement>,
) {
    let disagree = |d: &mut Option<Disagreement>, class: &str, detail: String| {
        if d.is_none() {
            *d = Some(Disagreement {
                class: class.to_string(),
                detail,
            });
        }
    };
    let optimized = hstreams::opt::optimize(program, &ctx.check_env());

    if rejected {
        if !optimized.report.skipped || optimized.report.elided_actions() > 0 {
            disagree(
                disagreement,
                "opt-touched-rejected",
                format!(
                    "optimizer edited a checker-rejected program ({} action(s) elided)",
                    optimized.report.elided_actions()
                ),
            );
        } else {
            signals.insert("opt:refused".to_string());
        }
        return;
    }

    if optimized.report.skipped {
        disagree(
            disagreement,
            "opt-skipped-clean",
            "checker passed but the optimizer refused the program".to_string(),
        );
        return;
    }
    if optimized.report.reverted {
        disagree(
            disagreement,
            "opt-reverted",
            "optimizer reverted its own edits on a clean program".to_string(),
        );
        return;
    }
    match &optimized.report.certificate {
        Some(c) if c.holds() => {}
        other => {
            disagree(
                disagreement,
                "opt-certificate",
                format!("equivalence certificate missing or violated: {other:?}"),
            );
            return;
        }
    }
    signals.insert(
        if optimized.report.elided_actions() > 0 {
            "opt:elided"
        } else {
            "opt:noop"
        }
        .to_string(),
    );

    // Reference equivalence: the FIFO interpretations of the original and
    // the optimized program must end in the same state, bit for bit.
    let lens = buf_lens();
    let orig_ref = match RefExec::run_fifo(program, &lens) {
        Ok(r) => r,
        Err(stuck) => {
            disagree(
                disagreement,
                "opt-ref-wedged",
                format!(
                    "original clean program wedged the interpreter: {:?}",
                    stuck.frontier
                ),
            );
            return;
        }
    };
    match RefExec::run_fifo(&optimized.program, &lens) {
        Err(stuck) => disagree(
            disagreement,
            "opt-ref-wedged",
            format!(
                "optimized program wedged the interpreter: {:?}",
                stuck.frontier
            ),
        ),
        Ok(opt_ref) => {
            if ref_bits(&orig_ref) != ref_bits(&opt_ref)
                || orig_ref.fingerprint() != opt_ref.fingerprint()
            {
                disagree(
                    disagreement,
                    "opt-ref-divergence",
                    format!(
                        "reference states differ after elision in buffers {:?}",
                        diff_bufs(&ref_bits(&orig_ref), &ref_bits(&opt_ref))
                    ),
                );
            }
        }
    }
    if disagreement.is_some() {
        return;
    }

    // The optimized program must re-install and simulate clean.
    if let Err(e) = ctx.install_program(optimized.program.clone()) {
        disagree(
            disagreement,
            "opt-install-refused",
            format!("optimized program failed installation: {e:?}"),
        );
        return;
    }
    if let Err(e) = ctx.run_sim() {
        disagree(
            disagreement,
            "opt-sim-refused",
            format!("optimized program failed simulation: {e:?}"),
        );
        return;
    }

    // Native bit-identity, only when something was actually elided (a
    // no-op optimization returns the byte-identical program).
    if full && optimized.report.elided_actions() > 0 {
        ctx.zero_buffers();
        match ctx.run_native() {
            Err(e) => disagree(
                disagreement,
                "opt-native-refused",
                format!("optimized program failed natively: {e:?}"),
            ),
            Ok(_) => {
                let bits_opt = ctx_bits(ctx);
                if ctx.install_program(program.clone()).is_ok() {
                    ctx.zero_buffers();
                    if ctx.run_native().is_ok() {
                        let bits_orig = ctx_bits(ctx);
                        if bits_opt != bits_orig {
                            disagree(
                                disagreement,
                                "opt-native-divergence",
                                format!(
                                    "native buffers diverge after elision: {:?}",
                                    diff_bufs(&bits_orig, &bits_opt)
                                ),
                            );
                        } else {
                            signals.insert("diff:opt-native-agree".to_string());
                        }
                    }
                }
            }
        }
        ctx.zero_buffers();
    }
}

/// The native-side clean checks: two runs bit-identical, agreement with
/// the reference interpreter, metric-catalog parity against the sim run.
fn native_differential(
    ctx: &mut Context,
    spec: &ProgramSpec,
    program: &hstreams::program::Program,
    sim: &hstreams::executor::sim::SimReport,
    signals: &mut BTreeSet<String>,
    disagreement: &mut Option<Disagreement>,
) {
    let disagree = |d: &mut Option<Disagreement>, class: &str, detail: String| {
        if d.is_none() {
            *d = Some(Disagreement {
                class: class.to_string(),
                detail,
            });
        }
    };
    ctx.zero_buffers();
    let metered = NativeConfig {
        metrics: true,
        ..NativeConfig::default()
    };
    let n1 = match ctx.run_native_with(&metered) {
        Err(e) => {
            disagree(
                disagreement,
                "clean-native-refused",
                format!("checker passed but native failed: {e:?}"),
            );
            ctx.zero_buffers();
            return;
        }
        Ok(r) => r,
    };
    let bits1 = ctx_bits(ctx);
    if let Some(nm) = &n1.metrics {
        let sm = sim.metrics();
        let mut ns = nm.series_names();
        let mut ss = sm.series_names();
        ns.sort();
        ns.dedup();
        ss.sort();
        ss.dedup();
        if nm.instrument_names() != sm.instrument_names() || ns != ss {
            disagree(
                disagreement,
                "metrics-parity",
                format!(
                    "instrument/series catalogs diverge: native {}x{}, sim {}x{}",
                    nm.instrument_names().len(),
                    ns.len(),
                    sm.instrument_names().len(),
                    ss.len()
                ),
            );
        }
    }
    ctx.zero_buffers();
    match ctx.run_native() {
        Err(e) => disagree(
            disagreement,
            "native-nondeterminism",
            format!("second native run failed: {e:?}"),
        ),
        Ok(_) => {
            let bits2 = ctx_bits(ctx);
            if bits1 != bits2 {
                disagree(
                    disagreement,
                    "native-nondeterminism",
                    format!(
                        "repeat native runs differ in buffers {:?} (scheduler {})",
                        diff_bufs(&bits1, &bits2),
                        spec.scheduler.label()
                    ),
                );
            } else {
                match RefExec::run_fifo(program, &buf_lens()) {
                    Err(stuck) => disagree(
                        disagreement,
                        "clean-ref-wedged",
                        format!(
                            "checker passed but reference interpretation wedged: {:?}",
                            stuck.frontier
                        ),
                    ),
                    Ok(reference) => {
                        let rbits = ref_bits(&reference);
                        if rbits != bits2 {
                            disagree(
                                disagreement,
                                "native-ref-divergence",
                                format!(
                                    "native and reference states differ in buffers {:?}",
                                    diff_bufs(&rbits, &bits2)
                                ),
                            );
                        } else {
                            signals.insert("diff:native-ref-agree".to_string());
                        }
                    }
                }
            }
        }
    }
    ctx.zero_buffers();
}

type BufBits = Vec<(Vec<u32>, Vec<u32>)>;

/// Bit-exact `(host, device)` contents of every palette buffer. Lazy
/// (never-backed) storage reads as zeros of the palette length, the
/// runtime's read semantics.
fn ctx_bits(ctx: &Context) -> BufBits {
    let bits = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect();
    (0..N_BUFS)
        .map(|i| {
            let b = ctx.buffer(BufId(i)).expect("palette buffer exists");
            (bits(b.read_host()), bits(b.read_device()))
        })
        .collect()
}

fn ref_bits(r: &RefExec) -> BufBits {
    (0..N_BUFS)
        .map(|i| {
            (
                r.host[i].iter().map(|x| x.to_bits()).collect(),
                r.device[0][i].iter().map(|x| x.to_bits()).collect(),
            )
        })
        .collect()
}

fn diff_bufs(a: &BufBits, b: &BufBits) -> Vec<usize> {
    a.iter()
        .zip(b.iter())
        .enumerate()
        .filter(|(_, (x, y))| x != y)
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::{FaultSite, FaultSpec, Gene};
    use hstreams::sched::SchedulerKind;

    fn two_lane_synced() -> ProgramSpec {
        let mut s = ProgramSpec {
            partitions: 2,
            placements: vec![0, 1],
            lanes: vec![
                vec![
                    Gene::H2D(0),
                    Gene::Kernel {
                        reads: vec![0],
                        writes: vec![1],
                        work: 3,
                        host: false,
                    },
                    Gene::Record(0),
                ],
                vec![Gene::Wait(0), Gene::D2H(1)],
            ],
            scheduler: SchedulerKind::Fifo,
            fault: None,
        };
        s.repair();
        s
    }

    #[test]
    fn clean_case_upholds_the_full_contract() {
        let mut h = Harness::new();
        let out = h.run_case(&two_lane_synced(), true);
        assert!(!out.rejected, "synced two-lane genome is clean");
        assert!(
            out.disagreement.is_none(),
            "contract must hold: {:?}",
            out.disagreement
        );
        assert!(out.signals.contains("check:clean"));
        assert!(out.signals.contains("diff:native-ref-agree"));
    }

    #[test]
    fn racy_case_is_rejected_with_an_observable_witness() {
        let mut s = two_lane_synced();
        // Remove the wait: the d2h now races the producer's kernel write.
        s.lanes[1].remove(0);
        s.repair();
        let mut h = Harness::new();
        let out = h.run_case(&s, true);
        assert!(out.rejected, "dropped wait must be rejected");
        assert!(
            out.disagreement.is_none(),
            "refusal is contract-conforming: {:?}",
            out.disagreement
        );
        assert!(out.signals.contains("reject:sim"));
        assert!(out.signals.contains("reject:native"));
    }

    #[test]
    fn deadlock_case_witnesses_a_wedge() {
        let mut s = ProgramSpec {
            partitions: 2,
            placements: vec![0, 1],
            lanes: vec![
                vec![Gene::Wait(1), Gene::Record(0)],
                vec![Gene::Wait(0), Gene::Record(1)],
            ],
            scheduler: SchedulerKind::Fifo,
            fault: None,
        };
        s.repair();
        let mut h = Harness::new();
        let out = h.run_case(&s, true);
        assert!(out.rejected);
        assert!(out.disagreement.is_none(), "{:?}", out.disagreement);
        assert!(out.signals.contains("witness:deadlock-wedged"));
    }

    #[test]
    fn forced_transfer_fault_agrees_across_executors() {
        for attempts in [1u32, 6] {
            let mut s = two_lane_synced();
            s.fault = Some(FaultSpec {
                seed: 11,
                attempts,
                site: FaultSite::Transfer { lane: 0, index: 0 },
            });
            s.repair();
            let mut h = Harness::new();
            let out = h.run_case(&s, true);
            assert!(
                out.disagreement.is_none(),
                "attempts={attempts}: {:?}",
                out.disagreement
            );
            let has_fault_signal = out.signals.iter().any(|x| x.starts_with("fault:"));
            assert!(
                has_fault_signal,
                "fault family must light up: {:?}",
                out.signals
            );
        }
    }

    #[test]
    fn optimizer_oracle_elides_a_duplicated_wait_and_agrees() {
        let mut s = two_lane_synced();
        // A second wait on the same event is redundant by construction.
        s.lanes[1].insert(1, Gene::Wait(0));
        s.repair();
        let mut h = Harness::new();
        let out = h.run_case(&s, true);
        assert!(!out.rejected, "duplicated wait is still clean");
        assert!(out.disagreement.is_none(), "{:?}", out.disagreement);
        assert!(
            out.signals.contains("opt:elided"),
            "the duplicate must be elided: {:?}",
            out.signals
        );
        assert!(out.signals.contains("diff:opt-native-agree"));
    }

    #[test]
    fn optimizer_oracle_is_a_noop_on_minimal_programs_and_refuses_racy_ones() {
        let mut h = Harness::new();
        let clean = h.run_case(&two_lane_synced(), false);
        assert!(clean.signals.contains("opt:noop"), "{:?}", clean.signals);

        let mut racy = two_lane_synced();
        racy.lanes[1].remove(0);
        racy.repair();
        let out = h.run_case(&racy, false);
        assert!(out.rejected);
        assert!(out.disagreement.is_none(), "{:?}", out.disagreement);
        assert!(out.signals.contains("opt:refused"), "{:?}", out.signals);
    }

    #[test]
    fn scheduler_variants_keep_the_clean_contract() {
        for kind in SchedulerKind::all() {
            let mut s = two_lane_synced();
            s.scheduler = kind;
            let mut h = Harness::new();
            let out = h.run_case(&s, true);
            assert!(
                out.disagreement.is_none(),
                "{}: {:?}",
                kind.label(),
                out.disagreement
            );
        }
    }
}
