//! Program executors.
//!
//! Both executors interpret the same recorded [`Program`](crate::program::Program):
//!
//! * [`sim`] lowers it onto the `micsim` discrete-event engine and returns
//!   exact simulated timings on the calibrated Phi platform;
//! * [`native`] executes it for real — per-stream driver threads, a FIFO
//!   lane lock per link channel standing in for the PCIe link, and kernels
//!   running on partitioned host thread pools.
//!
//! The pair is the point: the simulator reproduces the paper's measured
//! shapes, the native executor proves the runtime semantics are real and
//! the kernels compute correct results.

pub mod native;
pub mod sim;
