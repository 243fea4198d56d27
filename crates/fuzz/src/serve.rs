//! Serve-mode oracle: multi-tenant interleaving must be invisible.
//!
//! Two clean genomes are packaged as [`TenantProgram`] payloads over the
//! fixed buffer palette and served three ways on identically configured
//! services — tenant A alone, tenant B alone, and both interleaved
//! through one [`StreamService`]. The contract:
//!
//! * both payloads are **admitted** (clean genomes fit the service's
//!   stream budget by construction);
//! * every job **completes** within the round budget;
//! * each tenant's outputs are **bit-identical** between its solo run and
//!   the interleaved run — relocation, partition folding, barrier
//!   lowering and lease resizing must not leak one tenant's work into
//!   another's buffers;
//! * a genome-spliced kernel panic in one tenant degrades **only** that
//!   tenant (per-lease poisoning), which then retries to the same clean
//!   outputs.
//!
//! Violations come back as [`Disagreement`]s with `serve-*` classes; the
//! fuzzer records them unshrunk (the pair, not one genome, is the
//! reproducer).

use hstreams::check::{analyze, CheckEnv};
use hstreams::lease::TenantId;
use hstreams::testutil::splitmix64;
use micsim::PlatformConfig;
use std::collections::BTreeSet;
use stream_serve::{
    derive_outputs, Admission, CapturedBuffer, JobStatus, ServeConfig, StreamService, TenantProgram,
};

use crate::genome::{buf_len, FaultSite, ProgramSpec, N_BUFS};
use crate::harness::{CaseOutcome, Disagreement};

/// Package a genome as a relocatable tenant payload. Every payload
/// carries the full palette with deterministic nonzero fills, so solo
/// and interleaved runs start from the same initial memory state. A
/// spliced [`FaultSite::KernelPanic`] aimed at a device kernel becomes
/// the payload's injection site; other fault kinds are dropped (the
/// service's per-lease poisoning only models kernel panics).
pub fn payload(spec: &ProgramSpec, name: &str) -> TenantProgram {
    let program = spec.to_program();
    let buffers = (0..N_BUFS)
        .map(|i| {
            let len = buf_len(i);
            CapturedBuffer {
                name: format!("b{i}"),
                len,
                host: (0..len)
                    .map(|j| (splitmix64((i * 131 + j) as u64 ^ 0x5e4e) % 1024) as f32 / 1024.0)
                    .collect(),
            }
        })
        .collect();
    let outputs = derive_outputs(&program);
    let fault = spec.fault.and_then(|f| match f.site {
        FaultSite::KernelPanic { lane, index } => {
            let is_device_kernel = spec
                .lanes
                .get(lane)
                .and_then(|l| l.get(index))
                .is_some_and(|g| matches!(g, crate::genome::Gene::Kernel { host: false, .. }));
            is_device_kernel.then_some((lane, index))
        }
        _ => None,
    });
    TenantProgram {
        workload: name.to_string(),
        partitions: spec.partitions,
        program,
        buffers,
        outputs,
        fault,
    }
}

/// Is this genome's program one the serve contract applies to — valid
/// and checker-clean? Rejected genomes are the *executor* oracles' turf.
pub fn admissible(spec: &ProgramSpec) -> bool {
    let program = spec.to_program();
    if program.validate().is_err() {
        return false;
    }
    let env = CheckEnv::permissive(&program);
    analyze(&program, &env).report.error_count() == 0
}

/// Serve the payloads on one fresh service and return, per tenant, the
/// bit patterns of its completed outputs plus how many degraded rounds
/// it saw. `Err` carries a disagreement (refusal, drain failure, or a
/// job that never completed).
#[allow(clippy::type_complexity)]
fn serve_all(
    payloads: &[TenantProgram],
) -> std::result::Result<Vec<(Vec<Vec<u32>>, usize)>, Disagreement> {
    let mut svc = StreamService::new(ServeConfig::new(PlatformConfig::phi_31sp()))
        .map_err(|e| disagree("serve-refused", format!("service construction failed: {e}")))?;
    for (t, p) in payloads.iter().enumerate() {
        match svc.submit(TenantId(t as u16), p.clone()) {
            Admission::Accepted(_) => {}
            a => {
                return Err(disagree(
                    "serve-refused",
                    format!("clean payload {} refused admission: {a:?}", p.workload),
                ))
            }
        }
    }
    let reports = svc
        .drain(8)
        .map_err(|e| disagree("serve-refused", format!("drain failed: {e}")))?;
    let mut out: Vec<(Option<Vec<Vec<u32>>>, usize)> = vec![(None, 0); payloads.len()];
    for o in reports.iter().flat_map(|r| &r.outcomes) {
        let slot = &mut out[o.tenant.0 as usize];
        match &o.status {
            JobStatus::Completed { outputs } => {
                slot.0 = Some(
                    outputs
                        .iter()
                        .map(|v| v.iter().map(|x| x.to_bits()).collect())
                        .collect(),
                );
            }
            JobStatus::Degraded { .. } => slot.1 += 1,
        }
    }
    out.into_iter()
        .enumerate()
        .map(|(t, (bits, degraded))| {
            bits.map(|b| (b, degraded)).ok_or_else(|| {
                disagree(
                    "serve-incomplete",
                    format!("tenant t{t} ({}) never completed", payloads[t].workload),
                )
            })
        })
        .collect()
}

fn disagree(class: &str, detail: String) -> Disagreement {
    Disagreement {
        class: class.to_string(),
        detail,
    }
}

/// Run the serve-mode differential described in the [module docs](self).
/// Genomes the checker rejects are skipped with a `serve:skip-rejected`
/// signal — refusal conformance is the executor harness's contract.
pub fn serve_case(a: &ProgramSpec, b: &ProgramSpec) -> CaseOutcome {
    let mut signals: BTreeSet<String> = BTreeSet::new();
    if !admissible(a) || !admissible(b) {
        signals.insert("serve:skip-rejected".to_string());
        return CaseOutcome {
            signals,
            rejected: true,
            disagreement: None,
        };
    }
    let pa = payload(a, "ta");
    let pb = payload(b, "tb");
    let faulty = [pa.fault.is_some(), pb.fault.is_some()];
    signals.insert(if faulty.iter().any(|&f| f) {
        "serve:pair-fault".to_string()
    } else {
        "serve:pair-clean".to_string()
    });

    let run = |payloads: &[TenantProgram]| serve_all(payloads);
    let result = (|| {
        let solo_a = run(std::slice::from_ref(&pa))?;
        let solo_b = run(std::slice::from_ref(&pb))?;
        let merged = run(&[pa.clone(), pb.clone()])?;
        Ok::<_, Disagreement>((solo_a, solo_b, merged))
    })();
    let (solo_a, solo_b, merged) = match result {
        Ok(r) => r,
        Err(d) => {
            return CaseOutcome {
                signals,
                rejected: false,
                disagreement: Some(d),
            }
        }
    };

    let mut disagreement = None;
    for (t, (solo, name)) in [(&solo_a[0], "ta"), (&solo_b[0], "tb")].iter().enumerate() {
        let shared = &merged[t];
        if shared.0 != solo.0 && disagreement.is_none() {
            disagreement = Some(disagree(
                "serve-isolation",
                format!("tenant {name}'s outputs diverge between solo and interleaved serving"),
            ));
        }
        if shared.1 > 0 {
            signals.insert("serve:degraded-retry".to_string());
            if !faulty[t] && disagreement.is_none() {
                disagreement = Some(disagree(
                    "serve-cross-degrade",
                    format!("tenant {name} degraded without carrying a fault"),
                ));
            }
        }
    }
    CaseOutcome {
        signals,
        rejected: false,
        disagreement,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::{FaultSpec, Gene};
    use hstreams::sched::SchedulerKind;

    fn two_lane(seed_buf: usize) -> ProgramSpec {
        let mut s = ProgramSpec {
            partitions: 2,
            placements: vec![0, 1],
            lanes: vec![
                vec![
                    Gene::H2D(seed_buf),
                    Gene::Kernel {
                        reads: vec![seed_buf],
                        writes: vec![seed_buf + 1],
                        work: 3,
                        host: false,
                    },
                    Gene::Record(0),
                ],
                vec![Gene::Wait(0), Gene::D2H(seed_buf + 1)],
            ],
            scheduler: SchedulerKind::Fifo,
            fault: None,
        };
        s.repair();
        s
    }

    #[test]
    fn clean_pairs_serve_isolated() {
        let out = serve_case(&two_lane(0), &two_lane(4));
        assert!(!out.rejected);
        assert!(out.disagreement.is_none(), "{:?}", out.disagreement);
        assert!(out.signals.contains("serve:pair-clean"));
    }

    #[test]
    fn identical_palette_use_still_isolates() {
        // Both tenants address the *same* palette buffers — the service
        // must give each its own shared allocation.
        let out = serve_case(&two_lane(2), &two_lane(2));
        assert!(out.disagreement.is_none(), "{:?}", out.disagreement);
    }

    #[test]
    fn spliced_kernel_panic_degrades_only_its_tenant() {
        let mut chaos = two_lane(8);
        chaos.fault = Some(FaultSpec {
            seed: 5,
            attempts: 1,
            site: FaultSite::KernelPanic { lane: 0, index: 1 },
        });
        chaos.repair();
        let out = serve_case(&chaos, &two_lane(12));
        assert!(out.disagreement.is_none(), "{:?}", out.disagreement);
        assert!(
            out.signals.contains("serve:degraded-retry"),
            "{:?}",
            out.signals
        );
        assert!(out.signals.contains("serve:pair-fault"));
    }

    #[test]
    fn rejected_genomes_are_skipped() {
        let mut racy = two_lane(0);
        racy.lanes[1].remove(0); // drop the wait: d2h races the kernel
        racy.repair();
        let out = serve_case(&racy, &two_lane(4));
        assert!(out.rejected);
        assert!(out.signals.contains("serve:skip-rejected"));
        assert!(out.disagreement.is_none());
    }
}
