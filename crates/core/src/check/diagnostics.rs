//! Typed diagnostics emitted by the static analyzer.
//!
//! Every finding is a [`Diagnostic`]: a [`CheckCode`] (what rule fired), a
//! primary [`Site`] (which action), optional related sites (the other half
//! of a race, the rest of a deadlock cycle), and a rendered message. Codes
//! map to a fixed [`Severity`] and a [`CheckClass`]; a program is *clean*
//! when it has no `Severity::Error` diagnostics. The analyzer emits the
//! first four classes; the optimizer's advisory lints
//! ([`crate::opt::lint`]) emit [`CheckClass::Perf`].

use std::fmt;
use std::time::Duration;

use crate::types::StreamId;

/// How bad a diagnostic is.
///
/// `Error` findings (deadlocks, races, malformed references) make both
/// executors refuse the program; `Warning` findings (reads of
/// zero-initialized buffers, dead events, oversubscription) are reported
/// but never block execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but legal — the program runs.
    Warning,
    /// The program is refused: neither executor runs it.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The families of checks the analyzer and the optimizer's advisory
/// lints cover.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckClass {
    /// Cross-stream event cycles and unsatisfiable waits.
    Deadlock,
    /// Conflicting unordered accesses to one buffer in one memory space.
    Race,
    /// Use-before-produce, dead events, dangling references.
    Dataflow,
    /// Placement and partition-budget lints.
    Resource,
    /// Performance advisories from the static optimizer
    /// ([`crate::opt::lint`]): over-synchronization, starvation,
    /// serialized overlap. Never emitted by
    /// [`analyze`](super::analyze), so they cannot affect enforcement.
    Perf,
}

/// The specific rule a diagnostic fired under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckCode {
    /// The happens-before graph has a cycle: every stream on it waits for
    /// an event that cannot fire until the stream itself advances.
    DeadlockCycle,
    /// A stream waits on an event it records itself.
    SelfWait,
    /// A `WaitEvent`/`RecordEvent` references an event with no valid
    /// recording site.
    UnknownEvent,
    /// Two accesses to the same buffer in the same memory space, at least
    /// one a write, with no happens-before edge either way.
    Race,
    /// An action references a buffer the context never allocated.
    UnknownBuffer,
    /// A device-side read (kernel input or D2H) of a buffer no prior
    /// action wrote on that device. Buffers are zero-filled, so this is
    /// legal — but usually means a missing H2D.
    UseBeforeProduce,
    /// A recorded event no stream ever waits on.
    DeadEvent,
    /// A stream is bound to a device or partition outside the plan.
    PlacementOutOfRange,
    /// More active streams share a partition than the context was built
    /// with.
    PartitionOversubscribed,
    /// A wait, record, or barrier whose ordering is already implied by
    /// other happens-before edges — sync elision would remove it.
    RedundantSync,
    /// The program statically leaves partitions idle: fewer busy
    /// placements than the platform provides (`T < P`, the paper's
    /// starvation class).
    StarvedPartitions,
    /// A transfer and an independent cross-stream kernel are
    /// happens-before-ordered: the sync serializing them costs overlap
    /// without adding safety.
    SerializedOverlap,
}

impl CheckCode {
    /// The fixed severity of this rule.
    pub fn severity(self) -> Severity {
        match self {
            CheckCode::DeadlockCycle
            | CheckCode::SelfWait
            | CheckCode::UnknownEvent
            | CheckCode::Race
            | CheckCode::UnknownBuffer
            | CheckCode::PlacementOutOfRange => Severity::Error,
            CheckCode::UseBeforeProduce
            | CheckCode::DeadEvent
            | CheckCode::PartitionOversubscribed
            | CheckCode::RedundantSync
            | CheckCode::StarvedPartitions
            | CheckCode::SerializedOverlap => Severity::Warning,
        }
    }

    /// The check family this rule belongs to.
    pub fn class(self) -> CheckClass {
        match self {
            CheckCode::DeadlockCycle | CheckCode::SelfWait | CheckCode::UnknownEvent => {
                CheckClass::Deadlock
            }
            CheckCode::Race => CheckClass::Race,
            CheckCode::UnknownBuffer | CheckCode::UseBeforeProduce | CheckCode::DeadEvent => {
                CheckClass::Dataflow
            }
            CheckCode::PlacementOutOfRange | CheckCode::PartitionOversubscribed => {
                CheckClass::Resource
            }
            CheckCode::RedundantSync
            | CheckCode::StarvedPartitions
            | CheckCode::SerializedOverlap => CheckClass::Perf,
        }
    }

    /// Stable kebab-case name used in rendered output, e.g.
    /// `error[deadlock-cycle]`.
    pub fn name(self) -> &'static str {
        match self {
            CheckCode::DeadlockCycle => "deadlock-cycle",
            CheckCode::SelfWait => "self-wait",
            CheckCode::UnknownEvent => "unknown-event",
            CheckCode::Race => "race",
            CheckCode::UnknownBuffer => "unknown-buffer",
            CheckCode::UseBeforeProduce => "use-before-produce",
            CheckCode::DeadEvent => "dead-event",
            CheckCode::PlacementOutOfRange => "placement-out-of-range",
            CheckCode::PartitionOversubscribed => "partition-oversubscribed",
            CheckCode::RedundantSync => "redundant-sync",
            CheckCode::StarvedPartitions => "starved-partitions",
            CheckCode::SerializedOverlap => "serialized-overlap",
        }
    }
}

/// Where a diagnostic points: one action in one stream, addressable
/// against [`Program::dump`](crate::program::Program::dump) line numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Site {
    /// The stream.
    pub stream: StreamId,
    /// Index of the action within that stream's FIFO queue.
    pub action_index: usize,
}

impl Site {
    /// Construct from raw indices.
    pub fn new(stream: usize, action_index: usize) -> Site {
        Site {
            stream: StreamId(stream),
            action_index,
        }
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.stream, self.action_index)
    }
}

/// One analyzer finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// The rule that fired.
    pub code: CheckCode,
    /// The primary offending action.
    pub site: Site,
    /// Other involved actions (race partner, remaining cycle hops).
    pub related: Vec<Site>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Severity, from the code.
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// Check class, from the code.
    pub fn class(&self) -> CheckClass {
        self.code.class()
    }

    /// Compiler-style one-liner:
    /// `error[race] at s1[3]: ... (see s0[2])`.
    pub fn render(&self) -> String {
        let mut line = format!(
            "{}[{}] at {}: {}",
            self.severity(),
            self.code.name(),
            self.site,
            self.message
        );
        if !self.related.is_empty() {
            let sites: Vec<String> = self.related.iter().map(Site::to_string).collect();
            line.push_str(&format!(" (see {})", sites.join(", ")));
        }
        line
    }
}

/// Size and cost counters for one analysis run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckStats {
    /// Actions analyzed.
    pub actions: usize,
    /// Nodes in the happens-before graph (actions + barrier join points).
    pub hb_nodes: usize,
    /// Edges in the happens-before graph.
    pub hb_edges: usize,
    /// Wall-clock analysis time.
    pub elapsed: Duration,
}

/// Everything one [`analyze`](super::analyze) pass found.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// All findings, errors first, in deterministic site order within each
    /// severity.
    pub diagnostics: Vec<Diagnostic>,
    /// Analysis counters.
    pub stats: CheckStats,
}

impl CheckReport {
    /// Error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
    }

    /// Warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    /// `true` when the program has no error-severity findings (warnings
    /// are allowed).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Sort errors before warnings, then by site, and append one finding.
    pub(crate) fn push(&mut self, diag: Diagnostic) {
        self.diagnostics.push(diag);
    }

    /// Canonical ordering: errors first, then by (stream, action, code
    /// name) so output is deterministic.
    pub(crate) fn finish(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            b.severity()
                .cmp(&a.severity())
                .then(a.site.cmp(&b.site))
                .then(a.code.name().cmp(b.code.name()))
        });
    }

    /// Render every finding, one per line, with a trailing summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "check: {} error(s), {} warning(s) over {} actions ({} hb nodes, {} hb edges)\n",
            self.error_count(),
            self.warnings().count(),
            self.stats.actions,
            self.stats.hb_nodes,
            self.stats.hb_edges
        ));
        out
    }

    /// One-line summary for error messages: the count plus the first
    /// error's rendering.
    pub fn summary(&self) -> String {
        match self.errors().next() {
            Some(first) => format!("{} error(s); first: {}", self.error_count(), first.render()),
            None => "no errors".into(),
        }
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(code: CheckCode, stream: usize, idx: usize) -> Diagnostic {
        Diagnostic {
            code,
            site: Site::new(stream, idx),
            related: vec![],
            message: "m".into(),
        }
    }

    #[test]
    fn codes_map_to_fixed_severity_and_class() {
        assert_eq!(CheckCode::DeadlockCycle.severity(), Severity::Error);
        assert_eq!(CheckCode::DeadlockCycle.class(), CheckClass::Deadlock);
        assert_eq!(CheckCode::Race.severity(), Severity::Error);
        assert_eq!(CheckCode::UseBeforeProduce.severity(), Severity::Warning);
        assert_eq!(CheckCode::UseBeforeProduce.class(), CheckClass::Dataflow);
        assert_eq!(
            CheckCode::PartitionOversubscribed.class(),
            CheckClass::Resource
        );
    }

    #[test]
    fn report_orders_errors_first_and_renders_sites() {
        let mut r = CheckReport::default();
        r.push(diag(CheckCode::DeadEvent, 2, 5));
        r.push(diag(CheckCode::Race, 0, 1));
        r.finish();
        assert_eq!(r.diagnostics[0].code, CheckCode::Race);
        assert!(!r.is_clean());
        assert_eq!(r.error_count(), 1);
        let text = r.render();
        assert!(text.contains("error[race] at s0[1]"));
        assert!(text.contains("warning[dead-event] at s2[5]"));
        assert!(text.contains("1 error(s), 1 warning(s)"));
        assert!(r.summary().contains("error[race]"));
    }

    #[test]
    fn related_sites_render_in_parens() {
        let mut d = diag(CheckCode::Race, 1, 3);
        d.related.push(Site::new(0, 7));
        assert!(d.render().contains("(see s0[7])"));
    }
}
