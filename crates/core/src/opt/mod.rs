//! Static optimization passes over the [`Program`](crate::program::Program) IR.
//!
//! The paper's streamed speedups come entirely from *overlap* — transfers
//! hidden behind kernels — and overlap is destroyed by over-synchronization:
//! waits, records, and barriers whose ordering is already implied by other
//! happens-before edges serialize work without adding any safety. The
//! analyzer ([`crate::check`]) rejects programs with *missing* sync; this
//! module handles the dual failure mode:
//!
//! * [`optimize`] — **sync elision**: an HB transitive reduction over the
//!   analyzer's vector-clock graph that removes redundant `WaitEvent`s,
//!   dead `RecordEvent`s, and barriers implied by existing event edges.
//!   Every run emits a machine-checkable [`Certificate`]: the optimized
//!   program re-analyzes clean and its happens-before closure over
//!   payload actions (transfers and kernels) — in particular over every
//!   *conflicting* pair — is identical to the original's.
//! * [`static_cost`] — **static cost analysis** on the same graph, priced
//!   by [`sched::CostModel`](crate::sched::CostModel): per-stream busy and
//!   finish bounds, a critical-path / lane-load makespan lower bound that
//!   is sound against the simulator with no slack (the prices come from
//!   the function the simulator calls, summed in its integer nanoseconds,
//!   and the simulator's dependency edges are a superset of the HB edges),
//!   and a static estimate of the hidden (overlappable) transfer fraction.
//! * [`lint`] — **advisory diagnostics** built from both: redundant sync
//!   sites, statically-detectable `T < P` partition starvation, and
//!   transfer/kernel pairs serialized by sync that could overlap. These
//!   are [`Severity::Warning`](crate::check::Severity::Warning) findings
//!   in the [`CheckClass::Perf`](crate::check::CheckClass::Perf) class,
//!   kept out of [`analyze`](crate::check::analyze) so enforcement
//!   semantics never change; render them with
//!   [`Program::dump_annotated`](crate::program::Program::dump_annotated).
//!
//! Opt-in wiring: a caller that installs a whole program runs [`optimize`]
//! and installs its program, keeping the report to translate recorded
//! coordinates (the serve layer's post-merge path), and
//! [`Context::apply_optimizer`](crate::context::Context::apply_optimizer)
//! elides an incrementally recorded program in place (the tuner's path).

mod cost;
mod elide;
mod lint;

pub use cost::{static_cost, StaticCost, StreamBound};
pub use elide::{certify, optimize, Certificate, OptReport, Optimized};
pub use lint::lint;

use crate::action::Action;

/// Payload actions are the ones that move data or compute — everything
/// the optimizer must preserve, as opposed to the control actions
/// (records, waits, barriers) it is allowed to remove.
pub(crate) fn is_payload(a: &Action) -> bool {
    matches!(a, Action::Transfer { .. } | Action::Kernel(_))
}
