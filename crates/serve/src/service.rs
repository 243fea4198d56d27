//! The multi-tenant stream service.
//!
//! One long-lived [`Context`] owns the whole device; a [`LeaseTable`]
//! carves its partitions into per-tenant grants; a [`DrrQueue`] picks a
//! fair batch of queued jobs each round. The round relocates every
//! selected tenant's program into shared coordinates, merges them into
//! one program, and runs it **once** — so tenants time-share streams and
//! space-share partitions exactly the way the paper's multiple-streams
//! mechanism intends, and an injected kernel panic loses only the
//! partition it ran on, which belongs to the leasing tenant.
//!
//! The life of a job:
//!
//! 1. [`submit`](StreamService::submit) — admission control: a bounded
//!    queue sheds load instead of growing without bound;
//! 2. [`run_round`](StreamService::run_round) — DRR dispatch, elastic
//!    lease resize (shed poisoned partitions, shrink to fair share, grow
//!    into free space), buffer materialization, relocation, one merged
//!    run;
//! 3. outcome — completed jobs return their output buffers read back
//!    from host memory; a job whose lease lost partitions is *degraded*:
//!    its partitions are poisoned in the lease table, the fault site is
//!    consumed, and the job is requeued at the front to retry on healthy
//!    partitions next round. Other tenants in the same round complete
//!    normally — isolation is per-lease, not per-round.

use std::collections::BTreeMap;

use hstreams::check::Site;
use hstreams::context::Context;
use hstreams::fault::FaultPlan;
use hstreams::lease::TenantId;
use hstreams::metrics::{Labels, MetricsSnapshot, Unit};
use hstreams::program::Program;
use hstreams::types::{BufId, Error, Result};
use hstreams::OptReport;
use micsim::device::DeviceId;
use micsim::PlatformConfig;

use crate::drr::{DrrQueue, QueuedJob};
use crate::lease::{Lease, LeaseTable};
use crate::relocate::{merge, plan_bases, relocate, TenantMap};
use crate::tenant::TenantProgram;

/// DRR base quantum, in recorded-action cost units.
const QUANTUM: u64 = 32;

/// Seed for the per-round fault plans built from job injection sites.
const FAULT_SEED: u64 = 1;

/// Which executor a round runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutorKind {
    /// Price rounds on the calibrated simulator (virtual time; no real
    /// outputs, no fault injection).
    Sim,
    /// Execute rounds on the native backend (real outputs, isolation,
    /// fault injection).
    Native,
}

/// Service construction parameters.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The simulated platform the shared context is planned on.
    pub platform: PlatformConfig,
    /// Physical partitions the lease table manages (the context plans
    /// this many up front; leases re-partition ownership between runs).
    pub capacity: usize,
    /// Streams per physical partition the context provisions.
    pub streams_per_partition: usize,
    /// Admission bound: total queued jobs beyond this are shed.
    pub queue_depth: usize,
    /// Most tenants dispatched into one merged round.
    pub max_round_tenants: usize,
    /// Executor for rounds.
    pub executor: ExecutorKind,
    /// Run the sync-elision optimizer ([`hstreams::opt`]) over every
    /// merged round program on install. Relocation lowers tenant barriers
    /// to event records and waits whose all-to-all ordering can become
    /// redundant once programs merge (a single-stream tenant's barrier,
    /// for instance, lowers to a dead record); elision removes them under
    /// a machine-checked equivalence certificate. Fault injection sites
    /// are translated through the elision's site map automatically.
    pub optimize: bool,
}

impl ServeConfig {
    /// Defaults sized for one simulated Phi: 8 partitions, 2 streams
    /// each, native execution.
    #[must_use]
    pub fn new(platform: PlatformConfig) -> ServeConfig {
        ServeConfig {
            platform,
            capacity: 8,
            streams_per_partition: 2,
            queue_depth: 64,
            max_round_tenants: 8,
            executor: ExecutorKind::Native,
            optimize: false,
        }
    }
}

/// Admission verdict for a submitted job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Queued; the id appears in later [`RoundReport`]s.
    Accepted(u64),
    /// Queue full — shed. Resubmit later.
    Shed,
    /// The payload can never run on this service (invalid program or more
    /// streams than the context can drive).
    Rejected(String),
}

/// How one dispatched job ended.
#[derive(Clone, Debug)]
pub enum JobStatus {
    /// Ran to completion; `outputs[i]` is the host readback of the
    /// payload's `outputs[i]` buffer.
    Completed {
        /// Output buffer contents, aligned with [`TenantProgram::outputs`].
        outputs: Vec<Vec<f32>>,
    },
    /// The tenant's lease lost partitions this round; the job was
    /// requeued to retry on healthy partitions.
    Degraded {
        /// Physical partitions poisoned.
        lost: Vec<usize>,
        /// Actions skipped by the poisoned run.
        skipped: usize,
    },
}

/// One dispatched job's outcome.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Job id from [`Admission::Accepted`].
    pub id: u64,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Workload name.
    pub workload: String,
    /// Completion or degradation.
    pub status: JobStatus,
    /// Submit-to-completion latency in service seconds (degraded jobs
    /// report the in-flight time so far).
    pub latency: f64,
}

/// What one merged round did.
#[derive(Clone, Debug)]
pub struct RoundReport {
    /// Round duration in seconds (simulated makespan or native wall time).
    pub duration: f64,
    /// Streams in the merged program.
    pub merged_streams: usize,
    /// Control actions the post-merge sync elision removed (zero unless
    /// the service was built with [`ServeConfig::optimize`]).
    pub syncs_elided: usize,
    /// Outcome per dispatched job, in dispatch order.
    pub outcomes: Vec<JobOutcome>,
}

struct Job {
    id: u64,
    tenant: TenantId,
    arrival: f64,
    prog: TenantProgram,
}

/// The serving loop state. See the [module docs](self).
pub struct StreamService {
    cfg: ServeConfig,
    ctx: Context,
    leases: LeaseTable,
    drr: DrrQueue,
    jobs: BTreeMap<u64, Job>,
    next_job: u64,
    now: f64,
    shed: u64,
    metrics: MetricsSnapshot,
    /// Per-tenant shared-buffer table: local index → (name, len, shared id).
    buffer_cache: BTreeMap<TenantId, Vec<(String, usize, BufId)>>,
}

impl StreamService {
    /// Build the shared context at `cfg.capacity` partitions and an empty
    /// lease table over them.
    ///
    /// # Errors
    /// Propagates context construction failures (e.g. a capacity the
    /// platform cannot partition).
    pub fn new(cfg: ServeConfig) -> Result<StreamService> {
        let ctx = Context::builder(cfg.platform.clone())
            .partitions(cfg.capacity)
            .streams_per_partition(cfg.streams_per_partition)
            .build()?;
        Ok(StreamService {
            leases: LeaseTable::new(cfg.capacity),
            drr: DrrQueue::new(QUANTUM),
            jobs: BTreeMap::new(),
            next_job: 0,
            now: 0.0,
            shed: 0,
            metrics: MetricsSnapshot::default(),
            buffer_cache: BTreeMap::new(),
            ctx,
            cfg,
        })
    }

    /// Set a tenant's DRR weight (default 1).
    pub fn set_weight(&mut self, tenant: TenantId, weight: u64) {
        self.drr.set_weight(tenant, weight);
    }

    /// The service clock, in seconds: simulated time under
    /// [`ExecutorKind::Sim`], accumulated wall time under
    /// [`ExecutorKind::Native`], plus explicit [`advance`](Self::advance)s.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advance the service clock — how an open-loop driver spaces
    /// arrivals between rounds.
    pub fn advance(&mut self, dt: f64) {
        self.now += dt.max(0.0);
    }

    /// Jobs queued across all tenants.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.drr.queued()
    }

    /// Jobs shed by admission control since construction.
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.shed
    }

    /// The lease table (grants and poisoned partitions).
    #[must_use]
    pub fn leases(&self) -> &LeaseTable {
        self.leases
            .check_invariants()
            .map(|()| &self.leases)
            .expect("lease table invariants hold")
    }

    /// The service metrics (per-tenant latency histograms,
    /// completion/shed counters, round durations).
    #[must_use]
    pub fn metrics(&self) -> &MetricsSnapshot {
        &self.metrics
    }

    /// Submit a job for `tenant`. See [`Admission`].
    pub fn submit(&mut self, tenant: TenantId, prog: TenantProgram) -> Admission {
        if let Err(e) = prog.program.validate() {
            return Admission::Rejected(format!("invalid program: {e}"));
        }
        let max_streams = self.max_streams();
        if prog.program.streams.len() > max_streams {
            return Admission::Rejected(format!(
                "{} streams exceed the service budget of {max_streams}",
                prog.program.streams.len()
            ));
        }
        // Isolation at the door: a program may only name buffers of its
        // own captured table — relocation maps nothing else.
        for s in &prog.program.streams {
            for a in &s.actions {
                for b in a.buffers() {
                    if b.0 >= prog.buffers.len() {
                        return Admission::Rejected(format!(
                            "buffer {b} is outside the payload's table of {} buffers",
                            prog.buffers.len()
                        ));
                    }
                }
            }
        }
        if self.drr.queued() >= self.cfg.queue_depth {
            self.shed += 1;
            self.metrics
                .counter_add("serve_jobs_shed", Unit::Count, Labels::GLOBAL, 1);
            return Admission::Shed;
        }
        let id = self.next_job;
        self.next_job += 1;
        self.drr.enqueue(
            tenant,
            QueuedJob {
                id,
                cost: prog.cost(),
            },
        );
        self.jobs.insert(
            id,
            Job {
                id,
                tenant,
                arrival: self.now,
                prog,
            },
        );
        Admission::Accepted(id)
    }

    /// Dispatch and execute one merged round. Returns `None` when nothing
    /// was runnable (empty queues, or every candidate deferred).
    ///
    /// # Errors
    /// Propagates context errors other than recoverable partition loss
    /// (which degrades the affected tenants instead).
    pub fn run_round(&mut self) -> Result<Option<RoundReport>> {
        let Some(selected) = self.select_batch() else {
            return Ok(None);
        };
        let mut selected = selected;

        // Elastic leasing: shed poison + shrink to fair share, then grow.
        let fair = (self.cfg.capacity / selected.len()).max(1);
        for job in &selected {
            let desired = job.prog.partitions.clamp(1, fair);
            self.shrink_to(job.tenant, desired)?;
        }
        let active: std::collections::BTreeSet<TenantId> =
            selected.iter().map(|j| j.tenant).collect();
        let mut deferred = Vec::new();
        for (i, job) in selected.iter().enumerate() {
            let desired = job.prog.partitions.clamp(1, fair);
            if !self.grow_toward(job.tenant, desired, &active)? {
                deferred.push(i);
            }
        }
        for &i in deferred.iter().rev() {
            let job = selected.remove(i);
            self.requeue(job);
        }
        if selected.is_empty() {
            return Ok(None);
        }

        // Buffer materialization: deterministic initial state for the
        // round — all storage zeroed, then every participant's captured
        // host contents written.
        let tables: Vec<Vec<BufId>> = selected
            .iter()
            .map(|job| self.buffer_table(job.tenant, &job.prog))
            .collect();
        self.ctx.zero_buffers();
        for (job, table) in selected.iter().zip(&tables) {
            for (i, cb) in job.prog.buffers.iter().enumerate() {
                self.ctx.write_host(table[i], &cb.host)?;
            }
        }

        // Relocate into merged coordinates.
        let programs: Vec<&Program> = selected.iter().map(|j| &j.prog.program).collect();
        let bases = plan_bases(&programs);
        let mut parts = Vec::with_capacity(selected.len());
        let mut index_maps = Vec::with_capacity(selected.len());
        for ((job, table), &(stream_base, event_base)) in selected.iter().zip(&tables).zip(&bases) {
            let lease = self
                .leases
                .lease(job.tenant)
                .ok_or_else(|| Error::Config(format!("{} lost its lease", job.tenant)))?;
            let map = TenantMap {
                stream_base,
                event_base,
                device: DeviceId(0),
                partition_map: lease.healthy().collect(),
                buffer_map: table.clone(),
            };
            let part = relocate(&job.prog.program, &map)?;
            index_maps.push(part.index_map.clone());
            parts.push(part);
        }
        let merged = merge(parts);
        let merged_streams = merged.streams.len();

        // The jobs' fault injection sites in merged coordinates (consumed
        // — a retry runs clean).
        let mut fault_sites = Vec::new();
        for (ji, job) in selected.iter_mut().enumerate() {
            if let Some((ls, la)) = job.prog.fault.take() {
                let ms = bases[ji].0 + ls;
                let ma = *index_maps[ji]
                    .get(ls)
                    .and_then(|m| m.get(la))
                    .ok_or_else(|| {
                        Error::Config(format!("fault site ({ls},{la}) outside the program"))
                    })?;
                fault_sites.push((ms, ma));
            }
        }

        // Post-merge sync elision (under `ServeConfig::optimize`) may
        // remove control actions, shifting later action indices down:
        // compose the fault sites with the elision's site map. Faults
        // target kernels — payload the optimizer never removes — so the
        // translation is total.
        let (merged, opt_report) = if self.cfg.optimize {
            let optimized = hstreams::opt::optimize(&merged, &self.ctx.check_env());
            (optimized.program, Some(optimized.report))
        } else {
            (merged, None)
        };
        self.ctx.install_program(merged)?;
        let syncs_elided = opt_report.as_ref().map_or(0, OptReport::elided_actions);
        let mut plan: Option<FaultPlan> = None;
        for (ms, ma) in fault_sites {
            let (ms, ma) = match &opt_report {
                Some(r) => {
                    let s = r.map_site(Site::new(ms, ma)).ok_or_else(|| {
                        Error::Config(format!("fault site ({ms},{ma}) elided by the optimizer"))
                    })?;
                    (s.stream.0, s.action_index)
                }
                None => (ms, ma),
            };
            plan = Some(
                plan.unwrap_or_else(|| FaultPlan::seeded(FAULT_SEED))
                    .panic_kernel_at(ms, ma),
            );
        }
        let (duration, degraded) = self.execute(plan)?;
        self.now += duration;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        self.metrics.histogram_record(
            "serve_round_us",
            Unit::Micros,
            Labels::GLOBAL,
            (duration * 1e6) as u64,
        );

        let mut outcomes = Vec::with_capacity(selected.len());
        for (job, table) in selected.into_iter().zip(tables) {
            let latency = self.now - job.arrival;
            let labels = Labels::tenant(job.tenant.0);
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let latency_us = (latency * 1e6) as u64;
            if let Some((lost, skipped)) = degraded.get(&job.tenant) {
                self.metrics
                    .counter_add("serve_jobs_degraded", Unit::Count, labels, 1);
                outcomes.push(JobOutcome {
                    id: job.id,
                    tenant: job.tenant,
                    workload: job.prog.workload.clone(),
                    status: JobStatus::Degraded {
                        lost: lost.clone(),
                        skipped: *skipped,
                    },
                    latency,
                });
                self.requeue(job);
            } else {
                let outputs = job
                    .prog
                    .outputs
                    .iter()
                    .map(|b| self.ctx.read_host(table[b.0]))
                    .collect::<Result<Vec<_>>>()?;
                self.metrics
                    .counter_add("serve_jobs_completed", Unit::Count, labels, 1);
                self.metrics
                    .histogram_record("serve_latency_us", Unit::Micros, labels, latency_us);
                self.jobs.remove(&job.id);
                outcomes.push(JobOutcome {
                    id: job.id,
                    tenant: job.tenant,
                    workload: job.prog.workload.clone(),
                    status: JobStatus::Completed { outputs },
                    latency,
                });
            }
        }
        for o in &outcomes {
            #[allow(clippy::cast_precision_loss)]
            self.metrics.gauge_set(
                "serve_partitions_granted",
                Unit::Count,
                Labels::tenant(o.tenant.0),
                self.leases.lease(o.tenant).map_or(0, Lease::len) as f64,
            );
        }
        Ok(Some(RoundReport {
            duration,
            merged_streams,
            syncs_elided,
            outcomes,
        }))
    }

    /// Run rounds until the queue drains or `max_rounds` is hit.
    ///
    /// # Errors
    /// Propagates [`run_round`](Self::run_round) errors.
    pub fn drain(&mut self, max_rounds: usize) -> Result<Vec<RoundReport>> {
        let mut reports = Vec::new();
        for _ in 0..max_rounds {
            match self.run_round()? {
                Some(r) => reports.push(r),
                None if self.queued() == 0 => break,
                // Every candidate deferred (e.g. waiting on partitions
                // that free up when other tenants go idle): keep going.
                None => {}
            }
        }
        Ok(reports)
    }

    // ----- internals -------------------------------------------------------

    fn max_streams(&self) -> usize {
        self.ctx.device_count() * self.ctx.replan_capacity() * self.ctx.streams_per_partition()
    }

    /// Pop one DRR batch and pull the owned jobs, deferring any that
    /// would overflow the stream budget of a single merged program.
    fn select_batch(&mut self) -> Option<Vec<Job>> {
        let batch = self.drr.next_batch(self.cfg.max_round_tenants);
        if batch.is_empty() {
            return None;
        }
        let budget = self.max_streams();
        let mut used = 0usize;
        let mut selected = Vec::with_capacity(batch.len());
        for (tenant, qj) in batch {
            let job = self.jobs.remove(&qj.id).expect("queued job is stored");
            let k = job.prog.program.streams.len();
            if used + k > budget {
                self.drr.requeue_front(tenant, qj);
                self.jobs.insert(qj.id, job);
                continue;
            }
            used += k;
            selected.push(job);
        }
        if selected.is_empty() {
            None
        } else {
            Some(selected)
        }
    }

    fn requeue(&mut self, job: Job) {
        self.drr.requeue_front(
            job.tenant,
            QueuedJob {
                id: job.id,
                cost: job.prog.cost(),
            },
        );
        self.jobs.insert(job.id, job);
    }

    /// Shed poisoned partitions, then shrink the grant down to `desired`.
    fn shrink_to(&mut self, tenant: TenantId, desired: usize) -> Result<()> {
        let poisoned = self
            .leases
            .lease(tenant)
            .map_or(0, |l| l.poisoned().count());
        if poisoned > 0 {
            // `shrink` releases poisoned partitions first and heals them
            // into the free pool (per-run poison does not outlive a run).
            self.leases.shrink(tenant, poisoned)?;
        }
        let held = self.leases.lease(tenant).map_or(0, Lease::len);
        if held > desired {
            self.leases.shrink(tenant, held - desired)?;
        }
        Ok(())
    }

    /// Grow the grant toward `desired`, reclaiming idle tenants' grants
    /// if the free pool runs dry. Tenants in `active` (this round's
    /// batch) are never reclaimed — their queues look empty only because
    /// the batch already popped their jobs. Returns whether the tenant
    /// holds at least one partition afterwards.
    fn grow_toward(
        &mut self,
        tenant: TenantId,
        desired: usize,
        active: &std::collections::BTreeSet<TenantId>,
    ) -> Result<bool> {
        let held = self.leases.lease(tenant).map_or(0, Lease::len);
        if held < desired {
            let want = desired - held;
            if self.leases.free_count() < want {
                let idle: Vec<TenantId> = self
                    .leases
                    .tenants()
                    .filter(|&t| t != tenant && !active.contains(&t) && self.drr.queued_for(t) == 0)
                    .collect();
                for t in idle {
                    let spare = self.leases.lease(t).map_or(0, Lease::len);
                    if spare > 0 {
                        self.leases.shrink(t, spare)?;
                    }
                }
            }
            let take = want.min(self.leases.free_count());
            if take > 0 {
                self.leases.grow(tenant, take)?;
            }
        }
        Ok(self
            .leases
            .lease(tenant)
            .is_some_and(|l| l.healthy().count() > 0))
    }

    /// Local-index → shared-buffer table for one job, allocating a fresh
    /// shared buffer for each `(name, len)` this tenant has not used at
    /// that index before. The cache is per tenant, so two tenants never
    /// share an id: it is the one tenant→buffer ledger, and relocation
    /// maps a program through nothing else.
    fn buffer_table(&mut self, tenant: TenantId, prog: &TenantProgram) -> Vec<BufId> {
        let mut cache = self.buffer_cache.remove(&tenant).unwrap_or_default();
        let mut table = Vec::with_capacity(prog.buffers.len());
        for (i, cb) in prog.buffers.iter().enumerate() {
            let cached = cache
                .get(i)
                .filter(|(n, l, _)| *n == cb.name && *l == cb.len)
                .map(|&(_, _, id)| id);
            let id = match cached {
                Some(id) => id,
                None => {
                    let id = self.ctx.alloc(format!("t{}.{}", tenant.0, cb.name), cb.len);
                    let entry = (cb.name.clone(), cb.len, id);
                    if i < cache.len() {
                        cache[i] = entry;
                    } else {
                        cache.push(entry);
                    }
                    id
                }
            };
            table.push(id);
        }
        self.buffer_cache.insert(tenant, cache);
        table
    }

    /// Run the installed merged program; translate partition loss into
    /// per-lease poison and a per-tenant degraded set.
    #[allow(clippy::type_complexity)]
    fn execute(
        &mut self,
        plan: Option<FaultPlan>,
    ) -> Result<(f64, BTreeMap<TenantId, (Vec<usize>, usize)>)> {
        match self.cfg.executor {
            ExecutorKind::Sim => {
                // The plan stays off: a simulated loss fails the whole
                // round, because the simulator keeps no partial-run
                // recovery material that could confine it to one lease.
                // The sim path prices the merged round in virtual time.
                let report = self.ctx.run_sim()?;
                Ok((report.makespan().as_secs_f64(), BTreeMap::new()))
            }
            ExecutorKind::Native => {
                // Every native round sets its own plan, `None` included,
                // so no earlier round's faults fire here.
                self.ctx.set_fault_plan(plan);
                let t0 = std::time::Instant::now();
                let run = self.ctx.run_native();
                let duration = t0.elapsed().as_secs_f64();
                match run {
                    Ok(_) => Ok((duration, BTreeMap::new())),
                    Err(Error::Run(failure)) => {
                        let rs = failure.recovery;
                        let mut degraded: BTreeMap<TenantId, (Vec<usize>, usize)> = BTreeMap::new();
                        for &(_, partition, _) in &rs.lost {
                            let owner =
                                self.leases.partition_owner(partition).ok_or_else(|| {
                                    Error::Config(format!(
                                        "lost partition p{partition} has no lease"
                                    ))
                                })?;
                            self.leases.poison(owner, partition)?;
                            degraded.entry(owner).or_default().0.push(partition);
                        }
                        for &(stream, _) in &rs.skipped {
                            let tenant = self.tenant_of_stream(stream)?;
                            degraded.entry(tenant).or_default().1 += 1;
                        }
                        Ok((duration, degraded))
                    }
                    Err(refused) => Err(refused),
                }
            }
        }
    }

    /// Which tenant owns merged stream `stream` — via the placement's
    /// physical partition and the lease table.
    fn tenant_of_stream(&self, stream: usize) -> Result<TenantId> {
        let rec = self
            .ctx
            .program()
            .streams
            .get(stream)
            .ok_or_else(|| Error::Config(format!("stream {stream} outside merged program")))?;
        self.leases
            .partition_owner(rec.placement.partition)
            .ok_or_else(|| {
                Error::Config(format!(
                    "stream {stream} placed on unleased partition p{}",
                    rec.placement.partition
                ))
            })
    }
}

/// Jain's fairness index over per-tenant allocations:
/// `(Σx)² / (n · Σx²)`. 1.0 is perfectly fair; `1/n` is maximally unfair.
/// Empty or all-zero inputs score 1.0 (nothing is being shared unfairly).
#[must_use]
pub fn jain_index(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq <= f64::EPSILON {
        return 1.0;
    }
    #[allow(clippy::cast_precision_loss)]
    {
        (sum * sum) / (n as f64 * sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::CapturedBuffer;

    fn payload(buffers: &[(&str, usize)]) -> TenantProgram {
        TenantProgram {
            workload: "buffers".into(),
            partitions: 1,
            program: Program::default(),
            buffers: buffers
                .iter()
                .map(|&(name, len)| CapturedBuffer {
                    name: name.into(),
                    len,
                    host: vec![0.0; len],
                })
                .collect(),
            outputs: Vec::new(),
            fault: None,
        }
    }

    #[test]
    fn tenants_get_disjoint_shared_buffers_reused_per_name_and_len() {
        let mut svc = StreamService::new(ServeConfig::new(PlatformConfig::phi_31sp())).unwrap();
        let job = payload(&[("a", 64), ("b", 32)]);
        let t0 = svc.buffer_table(TenantId(0), &job);
        let t1 = svc.buffer_table(TenantId(1), &job);
        assert!(
            t0.iter().all(|b| !t1.contains(b)),
            "same names and lengths, yet shared ids: {t0:?} vs {t1:?}"
        );
        assert_eq!(
            svc.buffer_table(TenantId(0), &job),
            t0,
            "a second job reuses"
        );

        let resized = svc.buffer_table(TenantId(0), &payload(&[("a", 64), ("b", 48)]));
        assert_eq!(resized[0], t0[0], "an unchanged (name, len) keeps its id");
        assert!(
            !t0.contains(&resized[1]) && !t1.contains(&resized[1]),
            "a changed len allocates a fresh buffer"
        );
        assert_eq!(svc.ctx.buffer(resized[1]).unwrap().len, 48);
    }

    #[test]
    fn jain_index_bounds() {
        assert!((jain_index(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        let unfair = jain_index(&[1.0, 0.0, 0.0, 0.0]);
        assert!((unfair - 0.25).abs() < 1e-12);
        assert!((jain_index(&[]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[0.0, 0.0]) - 1.0).abs() < 1e-12);
    }
}
