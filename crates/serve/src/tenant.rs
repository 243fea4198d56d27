//! Tenant program capture: replay a [`Workload`] onto a private scratch
//! context and package everything the service needs to run it remotely —
//! the recorded program, the buffer table (names, lengths, initial host
//! contents), the output set, and an optional fault-injection site in
//! tenant-local coordinates.

use hstreams::action::Action;
use hstreams::context::Context;
use hstreams::program::Program;
use hstreams::types::{BufId, Result};
use mic_apps::workload::Workload;
use micsim::pcie::Direction;
use micsim::PlatformConfig;

/// One captured scratch buffer.
#[derive(Clone, Debug)]
pub struct CapturedBuffer {
    /// Scratch debug name (the service prefixes it with the tenant).
    pub name: String,
    /// Length in elements.
    pub len: usize,
    /// Host contents at capture time — the job's initial memory state.
    pub host: Vec<f32>,
}

/// A workload captured into a self-contained, relocatable job payload.
#[derive(Clone, Debug)]
pub struct TenantProgram {
    /// Workload name.
    pub workload: String,
    /// Virtual partitions the program was recorded against.
    pub partitions: usize,
    /// The recorded program, in tenant-local coordinates.
    pub program: Program,
    /// Buffer table indexed by local [`BufId`].
    pub buffers: Vec<CapturedBuffer>,
    /// Output buffers (local ids): the `d2h` payloads in first-transfer
    /// order, or every kernel-written buffer if nothing is downloaded.
    pub outputs: Vec<BufId>,
    /// Kernel-panic injection site `(local stream, local action index)`,
    /// consumed by the first run that carries it.
    pub fault: Option<(usize, usize)>,
}

impl TenantProgram {
    /// Record `workload` onto a fresh scratch context of its declared
    /// geometry and capture the result.
    ///
    /// # Errors
    /// Propagates context construction and recording errors.
    pub fn capture(workload: &mut Workload, platform: &PlatformConfig) -> Result<TenantProgram> {
        let mut ctx = Context::builder(platform.clone())
            .partitions(workload.partitions)
            .streams_per_partition(workload.streams_per_partition)
            .build()?;
        (workload.record)(&mut ctx)?;
        let program = ctx.program().clone();
        let buffers = (0..ctx.buffer_count())
            .map(|i| {
                let b = ctx.buffer(BufId(i))?;
                let (name, len) = (b.name.to_string(), b.len);
                Ok(CapturedBuffer {
                    name,
                    len,
                    host: ctx.read_host(BufId(i))?,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let outputs = derive_outputs(&program);
        Ok(TenantProgram {
            workload: workload.name.clone(),
            partitions: workload.partitions,
            program,
            buffers,
            outputs,
            fault: None,
        })
    }

    /// Attach a kernel-panic injection site in tenant-local coordinates.
    #[must_use]
    pub fn with_fault(mut self, stream: usize, action_index: usize) -> TenantProgram {
        self.fault = Some((stream, action_index));
        self
    }

    /// Scheduling cost: total recorded actions (at least 1).
    #[must_use]
    pub fn cost(&self) -> u64 {
        (self.program.action_count() as u64).max(1)
    }

    /// The local `(stream, action)` site of the `n`-th kernel launch, for
    /// aiming fault injection — `None` if the program has fewer kernels.
    #[must_use]
    pub fn nth_kernel_site(&self, n: usize) -> Option<(usize, usize)> {
        let mut seen = 0usize;
        for s in &self.program.streams {
            for (i, a) in s.actions.iter().enumerate() {
                if let Action::Kernel(k) = a {
                    if !k.host {
                        if seen == n {
                            return Some((s.id.0, i));
                        }
                        seen += 1;
                    }
                }
            }
        }
        None
    }
}

/// A program's outputs: every buffer it copies back to the host, in first
/// copy order — or, when it copies nothing back, every buffer its kernels
/// write.
#[must_use]
pub fn derive_outputs(program: &Program) -> Vec<BufId> {
    let mut outs: Vec<BufId> = Vec::new();
    for s in &program.streams {
        for a in &s.actions {
            if let Action::Transfer {
                dir: Direction::DeviceToHost,
                buf,
            } = a
            {
                if !outs.contains(buf) {
                    outs.push(*buf);
                }
            }
        }
    }
    if outs.is_empty() {
        for s in &program.streams {
            for a in &s.actions {
                if let Action::Kernel(k) = a {
                    for b in &k.writes {
                        if !outs.contains(b) {
                            outs.push(*b);
                        }
                    }
                }
            }
        }
    }
    outs
}

#[cfg(test)]
mod tests {
    use super::*;
    use mic_apps::workload::synthetic;

    #[test]
    fn capture_packages_program_buffers_and_outputs() {
        let platform = PlatformConfig::phi_31sp();
        let mut w = synthetic("cap", 5, 2);
        let t = TenantProgram::capture(&mut w, &platform).unwrap();
        assert_eq!(t.partitions, 2);
        assert_eq!(t.buffers.len(), 4, "a/b pair per lane");
        assert_eq!(t.outputs.len(), 2, "one d2h per lane");
        assert!(t.buffers[0].host.iter().any(|&x| x != 0.0), "inputs filled");
        assert!(t.cost() >= 8);
        t.program.validate().unwrap();
    }

    #[test]
    fn kernel_sites_index_device_kernels_in_stream_order() {
        let platform = PlatformConfig::phi_31sp();
        let mut w = synthetic("sites", 1, 2);
        let t = TenantProgram::capture(&mut w, &platform).unwrap();
        let (s0, a0) = t.nth_kernel_site(0).unwrap();
        assert_eq!((s0, a0), (0, 1), "first kernel follows the h2d");
        assert!(t.nth_kernel_site(64).is_none());
    }
}
