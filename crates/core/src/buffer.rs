//! Logical buffers.
//!
//! A [`Buffer`] is a named, fixed-length array of `f32` with a host copy and
//! (conceptually) one instance in each device's memory. The simulator
//! executor only uses the byte size; the native executor backs both
//! copies with storage and really moves the bytes, under its link-lane locks.
//!
//! Buffers are allocated at *tile granularity* by applications: one logical
//! buffer per tile, so different streams can write different tiles without
//! aliasing (the native executor locks whole buffers).
//!
//! Storage is **lazy**: a freshly allocated buffer holds no bytes until it
//! is first written or a native run backs it. Simulator-only
//! programs can therefore describe multi-gigabyte device datasets without
//! allocating them on the host.
//!
//! Each copy is a plain lock around its vector, owned by the buffer and
//! not shared: a native kernel borrows the storage it locks from the
//! [`Context`](crate::context::Context) it runs against. With its name
//! inline (see [`crate::inline`]), allocating a buffer allocates nothing
//! until it is backed.
//!
//! Backed storage never shrinks: the copies are crate-private, and every
//! writer in this crate either sizes a copy to `len` or writes into it in
//! place. The native runtime's walk memo relies on this — a repeated
//! program whose buffers a run backed skips backing them again.

use parking_lot::RwLock;

use crate::inline::InlineStr;
use crate::types::{BufId, Error, Result};

/// Element type of all buffers (the paper's workloads are single-precision).
pub type Elem = f32;

/// Bytes per element.
pub const ELEM_BYTES: u64 = std::mem::size_of::<Elem>() as u64;

/// One logical buffer.
pub struct Buffer {
    /// The handle.
    pub id: BufId,
    /// Debug name.
    pub name: InlineStr,
    /// Length in elements.
    pub len: usize,
    /// Host-side storage.
    pub(crate) host: RwLock<Vec<Elem>>,
    /// Device-side storage (backed by the native executor; the sim
    /// executor tracks only capacity in `micsim`'s device memory).
    pub(crate) device: RwLock<Vec<Elem>>,
}

impl Buffer {
    /// Create a logically zero-filled buffer (storage is lazy).
    pub fn new(id: BufId, name: impl Into<InlineStr>, len: usize) -> Buffer {
        Buffer {
            id,
            name: name.into(),
            len,
            host: RwLock::new(Vec::new()),
            device: RwLock::new(Vec::new()),
        }
    }

    /// Materialize both copies (zero-filled) if they are still lazy. The
    /// native executor calls this for every buffer its program touches.
    pub(crate) fn ensure_materialized(&self) {
        for side in [&self.host, &self.device] {
            let mut guard = side.write();
            if guard.len() != self.len {
                guard.resize(self.len, 0.0);
            }
        }
    }

    /// Size in bytes (what a transfer of this buffer moves).
    pub fn bytes(&self) -> u64 {
        self.len as u64 * ELEM_BYTES
    }

    /// Overwrite the host copy.
    pub fn write_host(&self, data: &[Elem]) -> Result<()> {
        if data.len() != self.len {
            return Err(Error::SizeMismatch {
                buf: self.id,
                expected: self.len,
                got: data.len(),
            });
        }
        let mut host = self.host.write();
        if host.len() != self.len {
            host.resize(self.len, 0.0);
        }
        host.copy_from_slice(data);
        Ok(())
    }

    /// Clone the host copy out (zeros if never written or transferred).
    pub fn read_host(&self) -> Vec<Elem> {
        self.read(&self.host)
    }

    /// Clone the device copy out (zeros if never backed).
    pub fn read_device(&self) -> Vec<Elem> {
        self.read(&self.device)
    }

    fn read(&self, side: &RwLock<Vec<Elem>>) -> Vec<Elem> {
        let copy = side.read();
        if copy.len() == self.len {
            copy.clone()
        } else {
            vec![0.0; self.len]
        }
    }

    /// Read the host copy through a closure without cloning. A still-lazy
    /// buffer is backed first so the closure always sees `len`
    /// elements.
    pub fn with_host<R>(&self, f: impl FnOnce(&[Elem]) -> R) -> R {
        {
            let host = self.host.read();
            if host.len() == self.len {
                return f(&host);
            }
        }
        self.ensure_materialized();
        f(&self.host.read())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_buffer_is_logically_zero_but_lazy() {
        let b = Buffer::new(BufId(0), "a", 4);
        assert_eq!(b.read_host(), vec![0.0; 4]);
        assert_eq!(b.read_device(), vec![0.0; 4]);
        assert_eq!(b.device.read().len(), 0, "no storage until backed");
        assert_eq!(b.bytes(), 16);
        b.ensure_materialized();
        assert_eq!(b.device.read().len(), 4);
        assert_eq!(b.host.read().len(), 4);
        // Idempotent.
        b.ensure_materialized();
        assert_eq!(b.host.read().len(), 4);
    }

    #[test]
    fn with_host_backs_lazily() {
        let b = Buffer::new(BufId(9), "lazy", 3);
        assert_eq!(b.with_host(<[f32]>::len), 3);
        assert_eq!(b.with_host(|h| h.iter().sum::<f32>()), 0.0);
    }

    #[test]
    fn write_and_read_host() {
        let b = Buffer::new(BufId(1), "a", 3);
        b.write_host(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(b.read_host(), vec![1.0, 2.0, 3.0]);
        assert_eq!(b.with_host(|h| h.iter().sum::<f32>()), 6.0);
    }

    #[test]
    fn write_host_length_checked() {
        let b = Buffer::new(BufId(2), "a", 3);
        assert!(matches!(
            b.write_host(&[1.0]),
            Err(Error::SizeMismatch {
                expected: 3,
                got: 1,
                ..
            })
        ));
    }

    #[test]
    fn zero_length_buffer_is_legal() {
        let b = Buffer::new(BufId(3), "empty", 0);
        assert_eq!(b.bytes(), 0);
        b.write_host(&[]).unwrap();
        assert!(b.read_host().is_empty());
    }
}
