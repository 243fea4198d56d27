//! # stream-serve — multi-tenant serving over the streams runtime
//!
//! The paper's multiple-streams mechanism time-shares streams and
//! space-shares partitions *within one program*. This crate extends the
//! same idea across **independent client programs**: a long-running
//! service admits jobs from many tenants, leases each a slice of the
//! device's partition space, merges the admitted programs into one
//! relocated super-program per round, and runs it on either executor.
//!
//! The moving parts:
//!
//! * [`mod@lease`] — elastic partition grants, the multi-tenant
//!   generalization of `Context::replan`;
//! * [`mod@relocate`] — rebasing tenant programs (streams, events, buffers,
//!   virtual→physical partitions, barrier-to-event lowering) into one
//!   merged coordinate space;
//! * [`drr`] — deficit-round-robin fair dispatch;
//! * [`service`] — admission control, round execution, per-lease fault
//!   isolation, and per-tenant metrics (the `tenant` label dimension).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod drr;
pub mod lease;
pub mod relocate;
pub mod service;
pub mod tenant;

pub use drr::{DrrQueue, QueuedJob};
pub use hstreams::lease::TenantId;
pub use lease::{Lease, LeaseTable};
pub use relocate::{merge, plan_bases, relocate, Relocated, TenantMap};
pub use service::{
    jain_index, Admission, ExecutorKind, JobOutcome, JobStatus, RoundReport, ServeConfig,
    StreamService,
};
pub use tenant::{derive_outputs, CapturedBuffer, TenantProgram};
