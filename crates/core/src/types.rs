//! Core identifier types and the crate-wide error enum.

use std::fmt;

pub use micsim::device::DeviceId;

/// Handle to a stream created by a [`crate::context::Context`].
///
/// Streams are numbered densely from 0 in creation order across the whole
/// context (all devices).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StreamId(pub usize);

/// Handle to a logical buffer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BufId(pub usize);

/// Handle to a recorded event.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(pub usize);

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for BufId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Errors produced by the runtime.
#[derive(Debug)]
pub enum Error {
    /// Referenced a stream that does not exist.
    UnknownStream(StreamId),
    /// Referenced a buffer that does not exist.
    UnknownBuffer(BufId),
    /// Referenced an event that was never recorded.
    UnknownEvent(EventId),
    /// Waiting on an event in the same stream that records it (or an event
    /// recorded *after* the wait), which can never complete.
    InvalidEventWait {
        /// The waiting stream.
        stream: StreamId,
        /// The event waited on.
        event: EventId,
    },
    /// A kernel listed the same buffer in both `reads` and `writes`.
    ReadWriteConflict {
        /// Offending buffer.
        buf: BufId,
        /// Kernel label.
        kernel: String,
    },
    /// Host data length does not match the buffer's length.
    SizeMismatch {
        /// The buffer.
        buf: BufId,
        /// Buffer length in elements.
        expected: usize,
        /// Provided length in elements.
        got: usize,
    },
    /// The card cannot be split into the requested partitions.
    Partition(micsim::partition::PartitionError),
    /// The program's buffers do not fit in one card's memory.
    OutOfMemory {
        /// Bytes of every allocated buffer together.
        requested: u64,
        /// Bytes one card holds.
        capacity: u64,
    },
    /// Configuration rejected at context build time.
    Config(String),
    /// A kernel was enqueued for native execution without a native body.
    MissingNativeBody {
        /// Kernel label.
        kernel: String,
    },
    /// A native kernel panicked; the run was aborted.
    KernelPanicked {
        /// Kernel label.
        kernel: String,
    },
    /// An injected or real fault exhausted its recovery budget.
    Fault {
        /// Where the fault fired (e.g. `"transfer s2#5"`, `"alloc b7"`).
        site: String,
        /// Attempts made before giving up (1 = no retries granted).
        attempts: u32,
    },
    /// A partition was poisoned by a kernel panic and taken out of service.
    PartitionLost {
        /// Device index of the lost partition.
        device: usize,
        /// Partition index on that device.
        partition: usize,
        /// Label of the kernel whose panic poisoned it.
        kernel: String,
    },
    /// A buffer was consumed on-device before any action produced it there.
    BufferNotProduced {
        /// The unproduced buffer.
        buf: BufId,
        /// The stream that tried to consume it.
        stream: StreamId,
    },
    /// Kernel cost model rejected a launch (e.g. an empty partition).
    Compute(micsim::compute::ComputeError),
    /// The static analyzer found error-severity defects (deadlocks, races,
    /// dangling references); the full report is attached. See
    /// [`crate::check`].
    Check(Box<crate::check::CheckReport>),
    /// A native run failed after it started; the failure carries what the
    /// run left behind. Displays as its cause.
    Run(Box<RunFailure>),
}

/// A native run that failed after it started: why, what to recover, and
/// what it recorded up to the failure.
#[derive(Debug)]
pub struct RunFailure {
    /// The run's first error (a lost partition, a panicked host kernel, a
    /// transfer out of retries, an allocation fault).
    pub cause: Error,
    /// Lost partitions, skipped payloads, fired fault sites and counters;
    /// [`Context::run_native_resilient`](crate::context::Context::run_native_resilient)
    /// re-plans from it.
    pub recovery: crate::fault::RecoveryState,
    /// The partial timeline — every span recorded before the failure, the
    /// failing kernel's included — when
    /// [`NativeConfig::trace`](crate::executor::native::NativeConfig) was set.
    pub trace: Option<crate::trace::NativeTrace>,
}

impl Error {
    /// What went wrong: the cause of a [`Error::Run`], else the error itself.
    pub fn cause(&self) -> &Error {
        match self {
            Error::Run(failure) => &failure.cause,
            other => other,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownStream(s) => write!(f, "unknown stream {s}"),
            Error::UnknownBuffer(b) => write!(f, "unknown buffer {b}"),
            Error::UnknownEvent(e) => write!(f, "unknown event {e}"),
            Error::InvalidEventWait { stream, event } => {
                write!(
                    f,
                    "stream {stream} waits on event {event} it cannot observe"
                )
            }
            Error::ReadWriteConflict { buf, kernel } => {
                write!(
                    f,
                    "kernel {kernel:?} lists buffer {buf} as both read and write"
                )
            }
            Error::SizeMismatch { buf, expected, got } => {
                write!(f, "buffer {buf} holds {expected} elements, data has {got}")
            }
            Error::Partition(e) => write!(f, "partitioning failed: {e}"),
            Error::OutOfMemory {
                requested,
                capacity,
            } => write!(
                f,
                "device OOM: requested {requested} B, the card holds {capacity} B"
            ),
            Error::Config(msg) => write!(f, "invalid configuration: {msg}"),
            Error::MissingNativeBody { kernel } => {
                write!(
                    f,
                    "kernel {kernel:?} has no native body; cannot run on the native executor"
                )
            }
            Error::KernelPanicked { kernel } => {
                write!(f, "kernel {kernel:?} panicked during native execution")
            }
            Error::Fault { site, attempts } => {
                write!(
                    f,
                    "fault at {site} not recovered after {attempts} attempt(s)"
                )
            }
            Error::PartitionLost {
                device,
                partition,
                kernel,
            } => {
                write!(
                    f,
                    "partition {partition} on device {device} lost to a panic in kernel {kernel:?}"
                )
            }
            Error::BufferNotProduced { buf, stream } => {
                write!(
                    f,
                    "stream {stream} consumes buffer {buf} before any action produced it"
                )
            }
            Error::Compute(e) => write!(f, "compute model error: {e}"),
            Error::Check(report) => {
                write!(f, "static check rejected the program: {}", report.summary())
            }
            Error::Run(failure) => failure.cause.fmt(f),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Partition(e) => Some(e),
            Error::Compute(e) => Some(e),
            _ => None,
        }
    }
}

impl From<micsim::partition::PartitionError> for Error {
    fn from(e: micsim::partition::PartitionError) -> Self {
        Error::Partition(e)
    }
}

impl From<micsim::compute::ComputeError> for Error {
    fn from(e: micsim::compute::ComputeError) -> Self {
        Error::Compute(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_compactly() {
        assert_eq!(StreamId(3).to_string(), "s3");
        assert_eq!(BufId(0).to_string(), "b0");
        assert_eq!(EventId(12).to_string(), "e12");
    }

    #[test]
    fn errors_format_usefully() {
        let e = Error::SizeMismatch {
            buf: BufId(2),
            expected: 10,
            got: 7,
        };
        let msg = e.to_string();
        assert!(msg.contains("b2") && msg.contains("10") && msg.contains('7'));

        let e = Error::InvalidEventWait {
            stream: StreamId(1),
            event: EventId(4),
        };
        assert!(e.to_string().contains("s1"));
    }

    #[test]
    fn fault_errors_format_usefully() {
        let e = Error::Fault {
            site: "transfer s2#5".into(),
            attempts: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("transfer s2#5") && msg.contains('4'));

        let e = Error::PartitionLost {
            device: 0,
            partition: 3,
            kernel: "gemm".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("partition 3") && msg.contains("gemm"));

        // A failed run reads as its cause.
        let run = Error::Run(Box::new(RunFailure {
            cause: e,
            recovery: crate::fault::RecoveryState::default(),
            trace: None,
        }));
        assert_eq!(run.to_string(), msg);
        assert!(matches!(
            run.cause(),
            Error::PartitionLost { partition: 3, .. }
        ));

        let e = Error::BufferNotProduced {
            buf: BufId(7),
            stream: StreamId(1),
        };
        let msg = e.to_string();
        assert!(msg.contains("b7") && msg.contains("s1"));
    }

    #[test]
    fn compute_errors_convert_with_source() {
        let ce = micsim::compute::ComputeError::EmptyPartition { kernel: "k".into() };
        let e: Error = ce.into();
        assert!(matches!(e, Error::Compute(_)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("empty partition"));
    }

    #[test]
    fn partition_errors_convert_with_source() {
        let e: Error = micsim::partition::PartitionError::ZeroPartitions.into();
        assert!(matches!(e, Error::Partition(_)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("partition count must be positive"));

        let e = Error::OutOfMemory {
            requested: 9,
            capacity: 8,
        };
        assert!(e.to_string().contains("device OOM: requested 9 B"));
    }
}
