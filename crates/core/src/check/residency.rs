//! Dataflow diagnostics (use-before-produce, dead events, dangling buffer
//! references) and resource lints (placement range, partition budget).

use std::collections::HashMap;

use crate::action::Action;
use crate::program::Program;
use crate::types::BufId;

use super::diagnostics::{CheckCode, CheckReport, Diagnostic, Site};
use super::hb::HbGraph;
use super::races::{Access, Accesses, Space};
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
        let mut groups: Vec<(&(BufId, Space), &Vec<Access>)> = accesses.iter().collect();
        groups.sort_by_key(|((buf, _), _)| buf.0);
        for ((buf, space), group) in groups {
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
    let mut per_partition: HashMap<(usize, usize), usize> = HashMap::new();
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
            *per_partition.entry((dev, part)).or_default() += 1;
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
    let mut over: Vec<(&(usize, usize), &usize)> = per_partition
        .iter()
        .filter(|(_, &n)| n > env.streams_per_partition)
        .collect();
    over.sort();
    for ((dev, part), n) in over {
        let site = program
            .streams
            .iter()
            .position(|s| s.placement.device.0 == *dev && s.placement.partition == *part)
            .map(|si| Site::new(si, 0))
            .unwrap_or(Site::new(0, 0));
        report.push(Diagnostic {
            code: CheckCode::PartitionOversubscribed,
            site,
            related: vec![],
            message: format!(
                "{n} active streams share dev{dev}#p{part}, planned for {} per partition",
                env.streams_per_partition
            ),
        });
    }
}
