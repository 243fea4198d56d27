//! Data-race detection over buffer accesses.
//!
//! Every action is lowered to a set of *accesses* `(buffer, space,
//! read|write)`, where the space separates the **host** copy of a buffer
//! from its per-device instances — an H2D reads the host copy and writes
//! the device instance, a D2H does the reverse, kernels touch the space
//! they execute in. Two accesses race when they hit the same buffer in the
//! same space, at least one writes, and the happens-before graph orders
//! them in neither direction. The space split is what keeps legitimate
//! patterns clean: Cholesky's host POTRF round trip (D2H → host kernel →
//! H2D on one stream) never conflicts with device-side readers of other
//! tiles, and multi-card residency mirroring touches distinct instances.
//!
//! The accesses live in **one sorted table** ([`Accesses`]): a flat vector
//! ordered once by `(buffer, space)` with a stable counting sort — one
//! counter per `(buffer, space)` key, so the table costs three allocations
//! and no comparisons whatever its size — so each `(buffer, space)` group
//! is a contiguous slice in program order and the groups come out in one
//! deterministic order. The race check, the dataflow check, the
//! schedulers' task graph and the elision certificate all walk those
//! slices; none of them groups or sorts again.

use micsim::pcie::Direction;

use crate::action::Action;
use crate::program::Program;
use crate::types::BufId;

use super::diagnostics::{CheckCode, CheckReport, Diagnostic, Site};
use super::hb::HbGraph;

/// Which copy of a buffer an access touches. Ordered host first, then
/// devices by index — the group order of [`Accesses`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Space {
    /// The host-memory copy.
    Host,
    /// The instance in device `.0`'s memory.
    Device(usize),
}

impl Space {
    /// The space's place in the group order: the host 0, device `d` at
    /// `d + 1`.
    fn rank(self) -> usize {
        match self {
            Space::Host => 0,
            Space::Device(d) => d + 1,
        }
    }
}

impl std::fmt::Display for Space {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Space::Host => write!(f, "host"),
            Space::Device(d) => write!(f, "dev{d}"),
        }
    }
}

/// One buffer access by one action.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Access {
    pub buf: BufId,
    pub space: Space,
    pub site: Site,
    pub write: bool,
    /// `true` when the access comes from a `Transfer` (for messages).
    pub transfer: bool,
}

/// All accesses of a program in one table, sorted by `(buffer, space)`
/// and in program order within each group.
pub(crate) struct Accesses(Vec<Access>);

impl Accesses {
    /// Lower every action of `program` to its accesses and sort them once.
    pub(crate) fn collect(program: &Program) -> Accesses {
        // A transfer makes two accesses, a kernel one per buffer it names.
        let count = program
            .streams
            .iter()
            .flat_map(|s| &s.actions)
            .map(|a| a.buffers().count() + usize::from(matches!(a, Action::Transfer { .. })))
            .sum();
        let mut all = Vec::with_capacity(count);
        for (si, s) in program.streams.iter().enumerate() {
            let dev = Space::Device(s.placement.device.0);
            for (ai, a) in s.actions.iter().enumerate() {
                let site = Site::new(si, ai);
                let mut push = |buf: BufId, space: Space, write: bool, transfer: bool| {
                    all.push(Access {
                        buf,
                        space,
                        site,
                        write,
                        transfer,
                    });
                };
                match a {
                    Action::Transfer { dir, buf } => {
                        let (from, to) = match dir {
                            Direction::HostToDevice => (Space::Host, dev),
                            Direction::DeviceToHost => (dev, Space::Host),
                        };
                        push(*buf, from, false, true);
                        push(*buf, to, true, true);
                    }
                    Action::Kernel(k) => {
                        let space = if k.host { Space::Host } else { dev };
                        for (buf, write) in k.accesses() {
                            push(buf, space, write, false);
                        }
                    }
                    _ => {}
                }
            }
        }
        Accesses(by_group(&all))
    }

    /// Every access, in table order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Access> {
        self.0.iter()
    }

    /// The `(buffer, space)` groups, each a contiguous slice in program
    /// order, in table order.
    pub(crate) fn groups(&self) -> impl Iterator<Item = &[Access]> {
        self.0.chunk_by(|a, b| a.buf == b.buf && a.space == b.space)
    }
}

/// `accesses` ordered by `(buffer, space)`, program order kept inside each
/// group: a stable counting sort over the keys `buffer × spaces + rank`,
/// which order exactly as the pairs do. The counters span the largest
/// buffer id in the table, as [`CheckEnv`](super::CheckEnv)'s buffer count
/// does.
fn by_group(accesses: &[Access]) -> Vec<Access> {
    let spaces = accesses
        .iter()
        .map(|a| a.space.rank() + 1)
        .max()
        .unwrap_or(0);
    let key = |a: &Access| a.buf.0 * spaces + a.space.rank();
    let keys = accesses.iter().map(|a| key(a) + 1).max().unwrap_or(0);
    // Each key's count, then its first slot.
    let mut next = vec![0usize; keys];
    for a in accesses {
        next[key(a)] += 1;
    }
    let mut sum = 0;
    for n in &mut next {
        let count = *n;
        *n = sum;
        sum += count;
    }
    let mut sorted = accesses.to_vec();
    for a in accesses {
        let slot = &mut next[key(a)];
        sorted[*slot] = *a;
        *slot += 1;
    }
    sorted
}

/// Cap on race reports per `(buffer, space)` group, so one missing event
/// in a hot loop does not flood the report.
const MAX_RACES_PER_GROUP: usize = 4;

/// Flag unordered conflicting access pairs. Skipped entirely on cyclic
/// graphs (clock queries are undefined there; the deadlock is the story).
pub(super) fn check(
    program: &Program,
    hb: &HbGraph,
    accesses: &Accesses,
    report: &mut CheckReport,
) {
    if hb.cycle().is_some() {
        return;
    }
    let label = |site: Site| program.streams[site.stream.0].actions[site.action_index].label();
    for group in accesses.groups() {
        let (buf, space) = (group[0].buf, group[0].space);
        let mut reported = 0usize;
        // First pair past the cap: every Race diagnostic — including the
        // overflow summary — must name a concrete unordered pair, or its
        // witness schedules degenerate to `a == a` (found by fuzzing).
        let mut unlisted: Option<(Site, Site)> = None;
        for (i, a) in group.iter().enumerate() {
            if !a.write {
                continue;
            }
            for (j, b) in group.iter().enumerate() {
                // Each unordered pair once: write-write pairs only for
                // i < j, write-read pairs from the write's side.
                if i == j || (b.write && j < i) {
                    continue;
                }
                if a.site == b.site || !hb.concurrent(a.site, b.site) {
                    continue;
                }
                if reported < MAX_RACES_PER_GROUP {
                    let verb = if b.write { "write/write" } else { "write/read" };
                    report.push(Diagnostic {
                        code: CheckCode::Race,
                        site: a.site,
                        related: vec![b.site],
                        message: format!(
                            "unsynchronized {verb} of {buf} ({space}): `{}` and `{}` \
                             have no happens-before edge",
                            label(a.site),
                            label(b.site)
                        ),
                    });
                } else if unlisted.is_none() {
                    unlisted = Some((a.site, b.site));
                }
                reported += 1;
            }
        }
        if let Some((site, partner)) = unlisted {
            report.push(Diagnostic {
                code: CheckCode::Race,
                site,
                related: vec![partner],
                message: format!(
                    "{} further unsynchronized pairs on {buf} ({space}) not listed",
                    reported - MAX_RACES_PER_GROUP
                ),
            });
        }
    }
}
