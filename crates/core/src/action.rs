//! Stream actions — the instructions of a streamed program.

use micsim::pcie::Direction;

use crate::kernel::KernelDesc;
use crate::types::{BufId, EventId};

/// One enqueued operation.
///
/// `Clone` exists so whole [`Program`](crate::program::Program)s can be
/// cloned (kernel descriptors keep their label and buffer lists inline and
/// share their native body `Arc`, so cloning one rarely allocates).
///
/// Every analysis pass walks actions at `size_of::<Action>()` stride and a
/// served program holds all of them, so the kernel variant is kept at
/// 184 bytes (pinned by a unit test).
#[derive(Clone, Debug)]
pub enum Action {
    /// Move a whole buffer between host and device memory.
    Transfer {
        /// Direction of the copy.
        dir: Direction,
        /// The buffer moved.
        buf: BufId,
    },
    /// Launch a kernel on this stream's partition.
    Kernel(KernelDesc),
    /// Record an event that fires when all prior work in this stream is done.
    RecordEvent(EventId),
    /// Block this stream until the event fires.
    WaitEvent(EventId),
    /// Device-wide barrier: this stream waits until *every* stream has
    /// finished all work enqueued before the barrier. The context enqueues
    /// one `Barrier(n)` action with the same index `n` into every stream.
    Barrier(usize),
}

impl Action {
    /// Short label for traces.
    pub fn label(&self) -> String {
        match self {
            Action::Transfer { dir, buf } => format!("{} {buf}", dir.label()),
            Action::Kernel(k) => k.label.to_string(),
            Action::RecordEvent(e) => format!("record {e}"),
            Action::WaitEvent(e) => format!("wait {e}"),
            Action::Barrier(n) => format!("barrier#{n}"),
        }
    }

    /// Whether this action occupies a hardware resource (vs pure control).
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Action::RecordEvent(_) | Action::WaitEvent(_) | Action::Barrier(_)
        )
    }

    /// Every buffer this action touches: the transfer payload, or a
    /// kernel's reads followed by its writes. Control actions touch none.
    pub fn buffers(&self) -> impl Iterator<Item = BufId> + '_ {
        let (payload, reads, writes): (Option<&BufId>, &[BufId], &[BufId]) = match self {
            Action::Transfer { buf, .. } => (Some(buf), &[], &[]),
            Action::Kernel(k) => (None, &k.reads, &k.writes),
            Action::RecordEvent(_) | Action::WaitEvent(_) | Action::Barrier(_) => (None, &[], &[]),
        };
        payload.into_iter().chain(reads).chain(writes).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micsim::compute::KernelProfile;

    #[test]
    fn an_action_stays_within_184_bytes() {
        assert!(
            std::mem::size_of::<Action>() <= 184,
            "{} B",
            std::mem::size_of::<Action>()
        );
    }

    #[test]
    fn labels_are_descriptive() {
        let a = Action::Transfer {
            dir: Direction::HostToDevice,
            buf: BufId(4),
        };
        assert_eq!(a.label(), "h2d b4");
        assert!(!a.is_control());

        let k = Action::Kernel(crate::kernel::KernelDesc::simulated(
            "gemm(0,1)",
            KernelProfile::streaming("gemm", 1e9),
            10.0,
        ));
        assert_eq!(k.label(), "gemm(0,1)");

        assert_eq!(Action::RecordEvent(EventId(2)).label(), "record e2");
        assert_eq!(Action::WaitEvent(EventId(2)).label(), "wait e2");
        assert_eq!(Action::Barrier(7).label(), "barrier#7");
        assert!(Action::Barrier(7).is_control());
    }
}
