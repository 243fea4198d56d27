//! Device memory errors.
//!
//! The simulator does not store bytes for simulated buffers — the sim
//! executor sums a program's buffer sizes against the card's capacity, so
//! that workloads which could never fit on a real 8 GB card fail loudly
//! instead of producing meaningless timings.

/// Allocation failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MemError {
    /// Not enough free device memory.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes currently free.
        free: u64,
    },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfMemory { requested, free } => {
                write!(f, "device OOM: requested {requested} B, {free} B free")
            }
        }
    }
}

impl std::error::Error for MemError {}
