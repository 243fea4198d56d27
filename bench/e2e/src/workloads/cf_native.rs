//! `cf_native` — the paper's headline streamed app (+24 %): tiled Cholesky,
//! `n = 384` in 6 × 6 tiles, recorded and run natively every op.
//!
//! Chosen because here the `mic_apps` kernel bodies are almost all of the
//! op (scalar loops, a `to_vec` per call) and runtime overhead is small: a
//! kernel-side gain shows on this workload and a dispatch-side gain must
//! not.
//!
//! Op: `reset_program` + `cholesky::record` + `run_native_with` +
//! `collect_result`. Refilling the tiles (the factorization is in place)
//! and checking against `cholesky::reference` happen outside the timed
//! span. Four seeded matrices rotate so no op can pass on a stale result.

use std::time::Instant;

use crate::adapter::{cf_reference, Cf, Native};
use crate::harness::{first_op, Env, StepOut, Workload};
use crate::json::Metric;
use crate::probes::NativeLayers;
use crate::span::Tracer;

const N: usize = 384;
const TILES_PER_DIM: usize = 6;
const MATRICES: usize = 4;
const REL_TOL: f32 = 2e-3;

pub struct CfNative {
    native: Native,
    cf: Cf,
    /// Per matrix: the input tiles, in `Cf::tiles` order.
    inputs: Vec<Vec<Vec<f32>>>,
    /// Per matrix: the reference factor.
    references: Vec<Vec<f32>>,
    next: usize,
    layers: NativeLayers,
}

fn max_abs(v: &[f32]) -> f32 {
    v.iter().fold(0.0, |m, x| m.max(x.abs()))
}

/// `max |got - want| / max |want|` within [`REL_TOL`], and nothing NaN.
fn matches_reference(got: &[f32], want: &[f32]) -> bool {
    if got.len() != want.len() {
        return false;
    }
    let scale = max_abs(want).max(f32::MIN_POSITIVE);
    let mut worst = 0.0f32;
    for (g, w) in got.iter().zip(want) {
        let d = (g - w).abs();
        if d.is_nan() {
            return false;
        }
        worst = worst.max(d);
    }
    worst / scale <= REL_TOL
}

impl Workload for CfNative {
    const NAME: &'static str = "cf_native";

    fn setup(seed: u64, tracer: &mut Tracer) -> Result<CfNative, String> {
        let mut native = Native::new();
        let cf = Cf::build(&mut native, N, TILES_PER_DIM);
        let mut inputs = Vec::with_capacity(MATRICES);
        let mut references = Vec::with_capacity(MATRICES);
        for k in 0..MATRICES as u64 {
            let full = cf.fill(&native, seed.wrapping_mul(MATRICES as u64).wrapping_add(k));
            inputs.push(cf.tiles().iter().map(|&b| native.read(b)).collect());
            references.push(cf_reference(&full, cf.n()));
        }
        let mut w = CfNative {
            native,
            cf,
            inputs,
            references,
            next: 0,
            layers: NativeLayers::default(),
        };
        if first_op(&mut w, tracer).failed > 0 {
            return Err(
                "cf_native: the first op does not match the reference factorization".into(),
            );
        }
        Ok(w)
    }

    fn step(&mut self, env: &mut Env<'_>) -> StepOut {
        let k = self.next % MATRICES;
        self.next += 1;
        for (&buf, tile) in self.cf.tiles().iter().zip(&self.inputs[k]) {
            self.native.write(buf, tile);
        }

        let t = &mut *env.tracer;
        let t0 = Instant::now();
        t.enter("op");
        t.time("hstreams.reset", || self.native.reset_program());
        t.time("apps.record", || self.cf.record(&mut self.native));
        let run = t.time("hstreams.native.run", || self.native.run(env.traced));
        let mut got = t.time("hstreams.readback", || self.cf.collect(&self.native));
        t.exit();
        let busy_s = t0.elapsed().as_secs_f64();
        env.latencies_ms.push((busy_s * 1e3) as f32);

        if env.corrupt {
            got[N + 1] += 1.0e3;
        }
        let ok = match run {
            Ok(stats) => {
                self.layers.note(&self.native, stats);
                matches_reference(&got, &self.references[k])
            }
            Err(e) => {
                eprintln!("mic-e2e: cf_native: run failed: {e}");
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
        self.cf.record(&mut self.native);
        self.layers.probe(&self.native, out);
    }

    fn layer_metrics(&mut self, tracer: &Tracer, out: &mut Vec<Metric>) {
        self.layers.report(tracer, self.cf.flops(), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_check_has_a_tolerance_and_refuses_nan() {
        let want = vec![10.0, -2.0, 0.0, 5.0];
        assert!(matches_reference(&want, &want));
        assert!(matches_reference(&[10.01, -2.0, 0.0, 5.0], &want));
        assert!(!matches_reference(&[10.1, -2.0, 0.0, 5.0], &want));
        assert!(!matches_reference(&[f32::NAN, -2.0, 0.0, 5.0], &want));
        assert!(!matches_reference(&want[..3], &want));
    }
}
