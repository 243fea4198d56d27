//! # stream-tune — task/resource granularity selection (paper Sec. V-C)
//!
//! Choosing the number of partitions `P` and tiles `T` by brute force means
//! evaluating every `(P, T)` pair — hundreds of runs. The paper proposes
//! pruning rules that shrink the space by an order of magnitude:
//!
//! 1. **P from the core-divisor set** — partition counts that divide the
//!    usable core count keep every partition on whole cores, avoiding the
//!    cache contention that wrecks the other values (Fig. 9(a,b)):
//!    `P ∈ {2, 4, 7, 8, 14, 28, 56}` on the 31SP.
//! 2. **T = m·P** — tiles must be a multiple of the partition count or some
//!    partitions idle (the cliff at `T < P` in Fig. 10).
//! 3. **T bounded** — large enough to exploit pipelining, small enough to
//!    amortize per-task launch overhead; the paper's measured optima sit at
//!    small multiples, so the default bound is `m ≤ max_multiple`.
//!
//! [`candidates`] builds the full and the pruned space. [`model`] goes one
//! step further — the analytical pipeline model the paper names as future
//! work — predicting makespans in closed form and the optimal tile count by
//! a square-root law.
//!
//! The loop is closed by the measurement-driven autotuner: a
//! [`tuner::Tuner`] walks a [`tuner::Strategy`]'s candidate order
//! (exhaustive, pruned, or pruned in the model's predicted order) and
//! prices each `(P, T)` through an [`evaluator::Evaluator`] — the
//! deterministic simulator or the pooled native executor — with a
//! [`cache::MeasurementCache`] and early stopping keeping repeat visits
//! and hopeless candidates cheap. Every [`tuner::TuneOutcome`] reports the
//! winner next to its evaluation count and the exhaustive grid size, so
//! the reduction factor is measurable. [`tuner::Tuner::tune_schedulers`]
//! widens the space to `(P, T, scheduler)`, pricing each candidate under
//! FIFO, HEFT list scheduling, and work stealing.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod candidates;
pub mod evaluator;
pub mod model;
pub mod tuner;

pub use cache::{CacheKey, MeasurementCache, Trial};
pub use candidates::{partition_class, pruned_space, CandidateSpace, PartitionClass, TuneBounds};
pub use evaluator::{Evaluator, Measurement, NativeEvaluator, SimEvaluator};
pub use model::PipelineModel;
pub use tuner::{RepeatPolicy, SchedSweepOutcome, Strategy, TuneOutcome, Tuner};
