//! Dataflow diagnostics (use-before-produce, dead events, dangling buffer
//! references) and resource lints (placement range, partition budget).

use crate::action::Action;
use crate::program::Program;

use super::diagnostics::{CheckCode, CheckReport, Diagnostic, Site};
use super::hb::HbGraph;
use super::races::{Accesses, Space};
use super::CheckEnv;

/// Device reads with no happens-before producer, and events nobody waits
/// on. Buffers are zero-filled on every card, so a missing producer is
/// legal (the kernels-only partition microbenchmark relies on it) — these
/// are warnings, not errors.
pub(super) fn check_dataflow(
    program: &Program,
    hb: &HbGraph,
    accesses: &Accesses,
    report: &mut CheckReport,
) {
    if hb.cycle().is_none() {
        let label = |site: Site| program.streams[site.stream.0].actions[site.action_index].label();
        for group in accesses.groups() {
            let (buf, space) = (group[0].buf, group[0].space);
            let Space::Device(d) = space else {
                // Host copies are initialized by `alloc`/`write_host`
                // before the program runs; reading one is always fine.
                continue;
            };
            for r in group.iter().filter(|a| !a.write) {
                let produced = group
                    .iter()
                    .any(|w| w.write && hb.happens_before(w.site, r.site));
                if !produced {
                    let what = if r.transfer {
                        format!("d2h of {buf} copies device memory nothing wrote")
                    } else {
                        format!(
                            "kernel `{}` reads {buf} before anything produced it",
                            label(r.site)
                        )
                    };
                    report.push(Diagnostic {
                        code: CheckCode::UseBeforeProduce,
                        site: r.site,
                        related: vec![],
                        message: format!(
                            "{what} on dev{d}; it reads zeros unless a prior run left data there"
                        ),
                    });
                }
            }
        }
    }

    let mut waited = vec![false; program.events.len()];
    for s in &program.streams {
        for a in &s.actions {
            if let Action::WaitEvent(e) = a {
                if let Some(w) = waited.get_mut(e.0) {
                    *w = true;
                }
            }
        }
    }
    for (e, rec) in program.events.iter().enumerate() {
        if !waited[e] {
            report.push(Diagnostic {
                code: CheckCode::DeadEvent,
                site: Site {
                    stream: rec.stream,
                    action_index: rec.action_index,
                },
                related: vec![],
                message: format!("event e{e} is recorded but never waited on"),
            });
        }
    }
}

/// Placement and buffer-table lints against the context's plan.
pub(super) fn check_resources(program: &Program, env: &CheckEnv, report: &mut CheckReport) {
    // Per in-range partition, `dev * partitions + part`: its active
    // streams and the first of them, which an oversubscription names.
    let mut active: Vec<(usize, usize)> = vec![(0, 0); env.devices * env.partitions];
    for (si, s) in program.streams.iter().enumerate() {
        let (dev, part) = (s.placement.device.0, s.placement.partition);
        if dev >= env.devices || part >= env.partitions {
            report.push(Diagnostic {
                code: CheckCode::PlacementOutOfRange,
                site: Site::new(si, 0),
                related: vec![],
                message: format!(
                    "stream {} is placed on dev{dev}#p{part}, but the plan has {} device(s) \
                     x {} partition(s)",
                    s.id, env.devices, env.partitions
                ),
            });
            continue;
        }
        if !s.actions.is_empty() {
            let (n, first) = &mut active[dev * env.partitions + part];
            if *n == 0 {
                *first = si;
            }
            *n += 1;
        }
        for (ai, a) in s.actions.iter().enumerate() {
            for buf in a.buffers() {
                if buf.0 >= env.buffers {
                    report.push(Diagnostic {
                        code: CheckCode::UnknownBuffer,
                        site: Site::new(si, ai),
                        related: vec![],
                        message: format!(
                            "`{}` references {buf}, but only {} buffer(s) are allocated",
                            a.label(),
                            env.buffers
                        ),
                    });
                }
            }
        }
    }
    for (slot, &(n, first)) in active.iter().enumerate() {
        if n > env.streams_per_partition {
            let (dev, part) = (slot / env.partitions, slot % env.partitions);
            report.push(Diagnostic {
                code: CheckCode::PartitionOversubscribed,
                site: Site::new(first, 0),
                related: vec![],
                message: format!(
                    "{n} active streams share dev{dev}#p{part}, planned for {} per partition",
                    env.streams_per_partition
                ),
            });
        }
    }
}
