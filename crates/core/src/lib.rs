//! # hstreams — a multiple-streams runtime for MIC-style platforms
//!
//! A from-scratch Rust implementation of the *multiple streams* programming
//! mechanism evaluated in *"Evaluating the Performance Impact of Multiple
//! Streams on the MIC-based Heterogeneous Platform"* (Li et al., 2016) —
//! the mechanism Intel shipped as **hStreams** for the Xeon Phi.
//!
//! ## The model
//!
//! * A [`Context`] partitions each card's cores into `P`
//!   **partitions** (spatial sharing) and binds **streams** to partitions.
//! * Work is enqueued on streams: `H2D` / `D2H` transfers, kernel launches,
//!   events and barriers. Actions in one stream run in FIFO order; actions
//!   in different streams run concurrently unless ordered by an event or a
//!   barrier (temporal sharing).
//! * The recorded program runs on either of two executors:
//!   - the **simulator** ([`executor::sim`]) prices it on a calibrated
//!     model of the Xeon Phi 31SP platform (serial PCIe link, SMT scaling,
//!     launch overheads) and returns an exact, reproducible timeline;
//!   - the **native** backend ([`executor::native`]) really executes it on
//!     partitioned host thread pools, transfers serialized on a FIFO lane
//!     lock per link channel, so the kernels' numerics can be validated end
//!     to end.
//!
//! ## Quick start
//!
//! ```
//! use hstreams::context::Context;
//! use hstreams::kernel::KernelDesc;
//! use micsim::compute::KernelProfile;
//! use micsim::PlatformConfig;
//!
//! // 4 partitions on a simulated Phi 31SP, one stream each.
//! let mut ctx = Context::builder(PlatformConfig::phi_31sp())
//!     .partitions(4)
//!     .build()?;
//!
//! // Tile a vector workload over the streams.
//! for t in 0..8 {
//!     let a = ctx.alloc(format!("a{t}"), 1 << 20);
//!     let b = ctx.alloc(format!("b{t}"), 1 << 20);
//!     let s = ctx.stream(t % 4)?;
//!     ctx.h2d(s, a)?;
//!     ctx.kernel(s, KernelDesc::simulated(
//!         format!("saxpy{t}"),
//!         KernelProfile::streaming("saxpy", 0.32e9),
//!         (1 << 20) as f64 * 40.0,
//!     ).reading([a]).writing([b]))?;
//!     ctx.d2h(s, b)?;
//! }
//!
//! let report = ctx.run_sim()?;
//! println!("makespan {}, {:.0}% of transfers hidden",
//!     report.makespan(),
//!     report.overlap().hidden_fraction() * 100.0);
//! # Ok::<(), hstreams::types::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod action;
mod buffer;
pub mod check;
pub mod context;
pub mod executor;
pub mod fault;
mod inline;
pub mod kernel;
pub mod lease;
pub mod metrics;
pub mod opt;
pub mod parallel;
pub mod plan;
mod pool;
pub mod program;
mod residency;
pub mod sched;
pub mod testutil;
mod trace;
pub mod types;

pub use buffer::{Buffer, Elem};
pub use check::{
    Analysis, CheckClass, CheckCode, CheckEnv, CheckReport, HazardWitness, Severity, WitnessKind,
};
pub use context::Context;
pub use executor::native::{NativeConfig, NativeReport};
pub use executor::sim::SimReport;
pub use fault::{FaultCounters, FaultPlan, RecoveryState, ResilientReport};
pub use inline::{BufList, InlineStr};
pub use kernel::{KernelCtx, KernelDesc, KernelFn};
pub use metrics::{HistogramSnapshot, MetricsSnapshot};
pub use opt::{Certificate, OptReport, Optimized, StaticCost};
pub use plan::{enqueue_tiles, FlowMode, TileTask};
pub use residency::ResidencyTracker;
pub use sched::{Schedule, SchedulerKind};
pub use trace::{LaunchHistogram, NativeCounters, NativeTrace, TaskTag};
pub use types::{BufId, Error, EventId, Result, RunFailure, StreamId};
