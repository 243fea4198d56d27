//! Kernel descriptors.
//!
//! A kernel in this runtime has two faces:
//!
//! * a **cost face** ([`micsim::compute::KernelProfile`] + a work amount)
//!   used by the simulator executor to price the launch, and
//! * a **native face** (a Rust closure over typed buffer slices) executed
//!   for real by the native executor.
//!
//! Applications provide both so the same program runs on either backend.
//!
//! A launch owns its label and its read and write lists inline (see
//! `crate::inline`) and shares its native body: an application builds one
//! [`KernelFn`] per kernel kind and tiling and every launch clones the
//! `Arc`, so recording a launch allocates nothing. Running a launch of up
//! to four buffers allocates nothing either: the body is called through
//! the launch's own `Arc` and borrows its buffers' storage from the context
//! that runs it, through view lists the native executor keeps inline
//! ([`KernelCtx`]). No launch holds storage of its own.

use std::fmt;
use std::sync::Arc;

use micsim::compute::KernelProfile;

use crate::inline::{BufList, InlineStr};
use crate::types::{BufId, Error, Result};

/// Typed views of the buffers a kernel accesses, plus execution hints.
///
/// `reads[i]` corresponds to `KernelDesc::reads[i]` and `writes[i]` to
/// `KernelDesc::writes[i]`, in declaration order. Both lists are borrowed
/// from whoever runs the body — the native executor keeps them inline for
/// the launch, up to four buffers in all — so handing a body its views
/// allocates nothing.
pub struct KernelCtx<'a> {
    /// Read-only views of the declared read buffers.
    pub reads: &'a [&'a [f32]],
    /// Mutable views of the declared write buffers.
    pub writes: &'a mut [&'a mut [f32]],
    /// Hardware threads of the partition this kernel runs on — the
    /// parallelism hint (what `omp_get_max_threads()` would say on the Phi).
    pub threads: usize,
}

/// The native body of a kernel, shared by every launch that clones it.
pub type KernelFn = Arc<dyn Fn(&mut KernelCtx<'_>) + Send + Sync>;

/// A complete kernel launch description.
#[derive(Clone)]
pub struct KernelDesc {
    /// Trace label, e.g. `"gemm(2,3)"`.
    pub label: InlineStr,
    /// Cost-model face.
    pub profile: KernelProfile,
    /// Work units this launch carries (same unit as `profile.thread_rate`).
    pub work: f64,
    /// Buffers read.
    pub reads: BufList,
    /// Buffers written.
    pub writes: BufList,
    /// Native face; `None` for simulate-only kernels.
    pub native: Option<KernelFn>,
    /// Run on the **host** instead of a device partition (hStreams supports
    /// host-side execution; e.g. its Cholesky sample factors diagonal tiles
    /// on the Xeon). Host kernels operate on the buffers' *host* copies, so
    /// the program must move data down/up around them explicitly.
    pub host: bool,
}

impl fmt::Debug for KernelDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelDesc")
            .field("label", &self.label)
            .field("work", &self.work)
            .field("reads", &self.reads)
            .field("writes", &self.writes)
            .field("native", &self.native.is_some())
            .field("host", &self.host)
            .finish()
    }
}

impl KernelDesc {
    /// Build a kernel with a cost face only (no native body).
    pub fn simulated(label: impl Into<InlineStr>, profile: KernelProfile, work: f64) -> KernelDesc {
        KernelDesc {
            label: label.into(),
            profile,
            work,
            reads: BufList::default(),
            writes: BufList::default(),
            native: None,
            host: false,
        }
    }

    /// Mark this kernel as host-executed.
    pub fn on_host(mut self) -> KernelDesc {
        self.host = true;
        self
    }

    /// Declare read buffers (replaces any previous list).
    pub fn reading(mut self, bufs: impl IntoIterator<Item = BufId>) -> KernelDesc {
        self.reads = bufs.into_iter().collect();
        self
    }

    /// Declare written buffers (replaces any previous list).
    pub fn writing(mut self, bufs: impl IntoIterator<Item = BufId>) -> KernelDesc {
        self.writes = bufs.into_iter().collect();
        self
    }

    /// Attach a native body.
    pub fn with_native(
        self,
        body: impl Fn(&mut KernelCtx<'_>) + Send + Sync + 'static,
    ) -> KernelDesc {
        self.with_body(Arc::new(body))
    }

    /// Attach a native body built once and shared: the launch clones the
    /// `Arc`, so recording it allocates nothing.
    pub fn with_body(mut self, body: KernelFn) -> KernelDesc {
        self.native = Some(body);
        self
    }

    /// Declared buffer accesses as `(buffer, is_write)` pairs, reads
    /// first — the shape the static analyzer and the native executor's
    /// buffer materialization both consume.
    pub fn accesses(&self) -> impl Iterator<Item = (BufId, bool)> + '_ {
        self.reads
            .iter()
            .map(|&b| (b, false))
            .chain(self.writes.iter().map(|&b| (b, true)))
    }

    /// Check internal consistency: a buffer must not be both read and
    /// written (the native executor takes a write lock; read it through the
    /// write slice instead).
    pub fn validate(&self) -> Result<()> {
        for r in &self.reads {
            if self.writes.contains(r) {
                return Err(Error::ReadWriteConflict {
                    buf: *r,
                    kernel: self.label.to_string(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> KernelProfile {
        KernelProfile::streaming("test", 1e9)
    }

    #[test]
    fn builder_chains() {
        let k = KernelDesc::simulated("k", profile(), 100.0)
            .reading([BufId(0), BufId(1)])
            .writing([BufId(2)])
            .with_native(|ctx| {
                ctx.writes[0][0] = ctx.reads[0][0] + ctx.reads[1][0];
            });
        assert_eq!(*k.reads, [BufId(0), BufId(1)]);
        assert_eq!(*k.writes, [BufId(2)]);
        assert!(k.native.is_some());
        k.validate().unwrap();
        let dbg = format!("{k:?}");
        assert!(dbg.contains("native: true"));
        assert!(!k.host);
        let hk = KernelDesc::simulated("h", profile(), 1.0).on_host();
        assert!(hk.host);
    }

    #[test]
    fn validate_catches_read_write_overlap() {
        let k = KernelDesc::simulated("bad", profile(), 1.0)
            .reading([BufId(3)])
            .writing([BufId(3)]);
        assert!(matches!(
            k.validate(),
            Err(Error::ReadWriteConflict { buf: BufId(3), .. })
        ));
    }

    #[test]
    fn native_body_runs_against_ctx() {
        let k = KernelDesc::simulated("add", profile(), 1.0).with_native(|ctx| {
            for (o, i) in ctx.writes[0].iter_mut().zip(ctx.reads[0]) {
                *o = i + 1.0;
            }
        });
        let input = vec![1.0f32, 2.0];
        let mut output = vec![0.0f32; 2];
        let mut ctx = KernelCtx {
            reads: &[&input],
            writes: &mut [&mut output],
            threads: 4,
        };
        (k.native.as_ref().unwrap())(&mut ctx);
        assert_eq!(output, vec![2.0, 3.0]);
    }
}
