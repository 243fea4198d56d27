//! `dispatch_tiny` — the paper's small-granularity regime (Fig. 10):
//! 256 tiles of 64 elements, so recording, `check::analyze`, launch,
//! events, barriers and the copy-engine hand-off are the whole op and
//! kernels and bytes are almost nothing.
//!
//! Chosen as the counterpart of `cf_native`: a gain in dispatch, analysis
//! or telemetry shows here and nowhere else, and a kernel-side gain must
//! leave it flat. Bulk copy speed is `memcpy`; it lives on as a probe.
//!
//! Program: tiles round-robin over the 2 streams, each `H2D → kernel →
//! D2H`. Every 8th tile has no input of its own: it reads the other
//! stream's latest output behind a record/wait edge. A barrier closes every
//! group of 64 tiles.
//!
//! Op: `reset_program` + record + `run_native_with` + one `read_host` (the
//! last tile, which hangs off the last cross-stream edge). All 256 outputs
//! are then checked, outside the span, by exact equality with the same
//! dataflow followed on the host. Four seeded input sets rotate.

use std::time::Instant;

use crate::adapter::{Buf, Native, HBENCH_ALPHA};
use crate::deck::Rng;
use crate::harness::{first_op, same_bits, Env, StepOut, Workload};
use crate::json::Metric;
use crate::probes::NativeLayers;
use crate::span::Tracer;

const TILES: usize = 256;
const ELEMS: usize = 64;
const CROSS_EVERY: usize = 8;
const BARRIER_EVERY: usize = 64;
const INPUT_SETS: usize = 4;

/// Tile `i` takes the previous tile's output (recorded on the other
/// stream) instead of an input of its own.
fn is_cross(i: usize) -> bool {
    i % CROSS_EVERY == CROSS_EVERY - 1
}

pub struct DispatchTiny {
    native: Native,
    /// Per tile: `(input, output)`.
    tiles: Vec<(Buf, Buf)>,
    /// Per input set, per tile.
    inputs: Vec<Vec<Vec<f32>>>,
    next: usize,
    layers: NativeLayers,
}

fn record(native: &mut Native, tiles: &[(Buf, Buf)]) {
    let streams = native.stream_count();
    for (i, &(input, out)) in tiles.iter().enumerate() {
        let s = native.stream(i % streams);
        let source = if is_cross(i) {
            let prev = native.stream((i - 1) % streams);
            let e = native.record_event(prev);
            native.wait_event(s, e);
            tiles[i - 1].1
        } else {
            native.h2d(s, input);
            input
        };
        native.hbench_kernel(s, format!("t{i}"), source, out, ELEMS, 1);
        native.d2h(s, out);
        if (i + 1) % BARRIER_EVERY == 0 {
            native.barrier();
        }
    }
}

/// The same dataflow on the host: what every tile's output must be.
fn expected(inputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let mut outs: Vec<Vec<f32>> = Vec::with_capacity(inputs.len());
    for (i, input) in inputs.iter().enumerate() {
        let source = if is_cross(i) { &outs[i - 1] } else { input };
        outs.push(source.iter().map(|x| x + HBENCH_ALPHA).collect());
    }
    outs
}

impl Workload for DispatchTiny {
    const NAME: &'static str = "dispatch_tiny";

    fn setup(seed: u64, tracer: &mut Tracer) -> Result<DispatchTiny, String> {
        let mut native = Native::new();
        let tiles = (0..TILES)
            .map(|i| {
                (
                    native.alloc(format!("a{i}"), ELEMS),
                    native.alloc(format!("b{i}"), ELEMS),
                )
            })
            .collect();
        let mut rng = Rng::new(seed ^ 0x7119);
        let inputs = (0..INPUT_SETS)
            .map(|_| (0..TILES).map(|_| rng.fill(ELEMS)).collect())
            .collect();
        let mut w = DispatchTiny {
            native,
            tiles,
            inputs,
            next: 0,
            layers: NativeLayers::default(),
        };
        if first_op(&mut w, tracer).failed > 0 {
            return Err("dispatch_tiny: the first op does not match the host dataflow".into());
        }
        Ok(w)
    }

    fn step(&mut self, env: &mut Env<'_>) -> StepOut {
        let k = self.next % INPUT_SETS;
        self.next += 1;
        for (i, (&(input, _), data)) in self.tiles.iter().zip(&self.inputs[k]).enumerate() {
            if !is_cross(i) {
                self.native.write(input, data);
            }
        }

        let t = &mut *env.tracer;
        let last = self.tiles[TILES - 1].1;
        let t0 = Instant::now();
        t.enter("op");
        t.time("hstreams.reset", || self.native.reset_program());
        t.time("apps.record", || record(&mut self.native, &self.tiles));
        let run = t.time("hstreams.native.run", || self.native.run(env.traced));
        let tail = t.time("hstreams.readback", || self.native.read(last));
        t.exit();
        let busy_s = t0.elapsed().as_secs_f64();
        env.latencies_ms.push((busy_s * 1e3) as f32);

        let ok = match run {
            Ok(stats) => {
                self.layers.note(&self.native, stats);
                let want = expected(&self.inputs[k]);
                let mut got: Vec<Vec<f32>> = self
                    .tiles
                    .iter()
                    .map(|&(_, out)| self.native.read(out))
                    .collect();
                if env.corrupt {
                    got[TILES / 2][0] += 1.0;
                }
                same_bits(&tail, &want[TILES - 1])
                    && got.iter().zip(&want).all(|(g, w)| same_bits(g, w))
            }
            Err(e) => {
                eprintln!("mic-e2e: dispatch_tiny: run failed: {e}");
                false
            }
        };
        StepOut {
            attempted: 1,
            failed: u64::from(!ok),
            busy_s,
        }
    }

    fn probes(&mut self, out: &mut Vec<Metric>) {
        self.native.reset_program();
        record(&mut self.native, &self.tiles);
        self.layers.probe(&self.native, out);
    }

    fn layer_metrics(&mut self, tracer: &Tracer, out: &mut Vec<Metric>) {
        // One add per element per tile.
        self.layers.report(tracer, (TILES * ELEMS) as f64, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_dataflow_follows_the_cross_stream_edges() {
        let inputs: Vec<Vec<f32>> = (0..16).map(|i| vec![i as f32; 2]).collect();
        let outs = expected(&inputs);
        assert_eq!(outs[0], vec![HBENCH_ALPHA; 2]);
        assert_eq!(outs[6], vec![6.0 + HBENCH_ALPHA; 2]);
        // Tile 7 ignores its own input and adds α to tile 6's output.
        assert_eq!(outs[7], vec![6.0 + 2.0 * HBENCH_ALPHA; 2]);
        assert_eq!(outs[15], vec![14.0 + 2.0 * HBENCH_ALPHA; 2]);
        assert!(same_bits(&outs[7], &outs[7].clone()));
        assert!(!same_bits(&[0.0], &[-0.0]));
    }
}
