//! # micsim — a discrete-event simulator of a MIC-based heterogeneous platform
//!
//! This crate is the hardware substrate for the `hstreams` multiple-streams
//! runtime. It models the platform evaluated in *"Evaluating the Performance
//! Impact of Multiple Streams on the MIC-based Heterogeneous Platform"*
//! (Li et al., 2016): a host CPU plus one or more Intel Xeon Phi 31SP cards
//! over PCIe.
//!
//! The simulator is *structural*: it does not execute kernels, it prices
//! them. What it models precisely are the constraints that drive the paper's
//! findings:
//!
//! * a **serial PCIe link** — H2D and D2H transfers never overlap
//!   ([`pcie`], paper Fig. 5);
//! * **core partitions** with real geometry — partitions that straddle a
//!   physical core contend in its cache ([`partition`], Fig. 9);
//! * a **kernel cost model** with launch overhead, SMT scaling, small-task
//!   efficiency loss and per-invocation allocation cost ([`compute`],
//!   Figs. 6, 7, 9, 10);
//! * a deterministic **task-DAG engine** with FIFO resource arbitration
//!   ([`engine`]), so every simulated timeline is exactly reproducible.
//!
//! Calibration constants come from the paper's own measurements and live in
//! [`calibrate::PlatformConfig::phi_31sp`].
//!
//! ## Example
//!
//! ```
//! use micsim::engine::{Engine, TaskSpec};
//! use micsim::time::SimDuration;
//!
//! let mut engine = Engine::new();
//! let link = engine.add_resource();
//! let part = engine.add_resource();
//! let h2d = engine.add_task(TaskSpec {
//!     resource: Some(link),
//!     duration: SimDuration::from_micros(100),
//!     deps: &[],
//!     tag: "h2d",
//! }).unwrap();
//! engine.add_task(TaskSpec {
//!     resource: Some(part),
//!     duration: SimDuration::from_micros(250),
//!     deps: &[h2d],
//!     tag: "kernel",
//! }).unwrap();
//! let timeline = engine.run();
//! assert_eq!(timeline.makespan, SimDuration::from_micros(350));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod calibrate;
pub mod compute;
pub mod device;
pub mod engine;
pub mod event;
pub mod fault;
pub mod partition;
pub mod pcie;
pub mod stats;
pub mod time;
pub mod trace;

pub use calibrate::PlatformConfig;
pub use device::{DeviceId, DeviceSpec};
pub use engine::{Engine, ResourceId, TaskId, TaskSpec, Timeline};
pub use fault::FaultDie;
pub use partition::{Partition, PartitionPlan};
pub use pcie::{Direction, Duplex, LinkModel};
pub use time::{SimDuration, SimTime};
