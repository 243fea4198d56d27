//! The discrete-event engine.
//!
//! The engine simulates a **task DAG over exclusive resources**:
//!
//! * a *resource* is anything that serializes work — the PCIe link of a card,
//!   one core partition, the host thread that dispatches actions;
//! * a *task* occupies exactly one resource (or none, for pure control
//!   dependencies) for a precomputed duration, and may depend on other tasks.
//!
//! The stream executor in the `hstreams` crate lowers a streamed program into
//! this form: per-stream FIFO edges, explicit event edges, transfers onto the
//! link resource, kernels onto partition resources.
//!
//! Arbitration is FIFO: when a resource frees up, the waiting task that
//! became ready earliest (ties broken by creation order) runs next. Together
//! with the deterministic event queue this makes simulated timelines exactly
//! reproducible.
//!
//! The graph is kept flat. A [`TaskSpec`] *borrows* its dependency list, so
//! a caller lowering thousands of tasks can refill one scratch vector; the
//! engine appends each `(dependency, dependent)` edge to one array, and
//! [`Engine::run`] turns that array into one offsets-plus-list dependents
//! table (CSR) with a counting pass. Each task's dependents keep creation
//! order, which is the order a finishing task releases them in.
//!
//! Tasks are unnamed, like resources: each carries a caller-defined `Copy`
//! tag the engine copies into its record untouched, and naming a task (for
//! a trace, a chart, a report) is the caller's business. Nothing in a run
//! allocates per task: the task and edge tables are sized up front, the
//! event heap holds at most one entry per task, and a resource's waiting
//! tasks form a FIFO threaded through the task table.

use crate::event::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Handle to a serializing resource.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ResourceId(pub usize);

/// Handle to a task in the DAG.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(pub usize);

/// A task to simulate.
#[derive(Clone, Copy, Debug)]
pub struct TaskSpec<'a, T> {
    /// Resource the task occupies; `None` for zero-footprint control tasks
    /// (events, barriers) that only propagate dependencies.
    pub resource: Option<ResourceId>,
    /// How long the task holds its resource.
    pub duration: SimDuration,
    /// Tasks that must finish before this one may start (borrowed: the
    /// engine copies the edges out in [`Engine::add_task`]). A task listed
    /// twice counts twice and is released by its one finish.
    pub deps: &'a [TaskId],
    /// The caller's name for the task, copied into its record.
    pub tag: T,
}

/// Completion record for one task.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaskRecord<T> {
    /// The task this record describes.
    pub task: TaskId,
    /// Resource it ran on, if any.
    pub resource: Option<ResourceId>,
    /// When every dependency was satisfied.
    pub ready: SimTime,
    /// When it actually started (≥ `ready`; waits for the resource).
    pub start: SimTime,
    /// When it finished.
    pub finish: SimTime,
    /// Tag copied from the spec.
    pub tag: T,
    /// The task whose completion gated this one's start — either its
    /// last-finishing dependency or the task that freed its resource —
    /// `None` if it started unimpeded at t = 0.
    pub critical_pred: Option<TaskId>,
}

/// The completed simulation: per-task records plus the makespan.
#[derive(Clone, Debug)]
pub struct Timeline<T> {
    /// One record per task, indexed by `TaskId.0`.
    pub records: Vec<TaskRecord<T>>,
    /// Completion time of the last task.
    pub makespan: SimDuration,
}

impl<T> Default for Timeline<T> {
    fn default() -> Self {
        Timeline {
            records: Vec::new(),
            makespan: SimDuration::ZERO,
        }
    }
}

impl<T> TaskRecord<T> {
    /// A record sourced from an external **measurement** (e.g. a wall-clock
    /// span stamped by the native executor) rather than simulation: `ready`
    /// coincides with `start` and there is no gating predecessor — measured
    /// spans carry no dependency information. The task id is provisional;
    /// [`Timeline::from_records`] renumbers it.
    pub fn measured(
        resource: Option<ResourceId>,
        start: SimTime,
        finish: SimTime,
        tag: T,
    ) -> TaskRecord<T> {
        TaskRecord {
            task: TaskId(0),
            resource,
            ready: start,
            start,
            finish,
            tag,
            critical_pred: None,
        }
    }
}

impl<T> Timeline<T> {
    /// Record for `task`.
    pub fn record(&self, task: TaskId) -> &TaskRecord<T> {
        &self.records[task.0]
    }

    /// Assemble a timeline from externally produced records — the entry
    /// point for wall-clock-sourced spans (native-executor traces). Records
    /// are sorted by `(start, finish)` and renumbered so that
    /// `record(TaskId)` indexing holds; `critical_pred` is cleared because
    /// renumbering invalidates the original ids and measured records have
    /// none. The makespan is the latest finish.
    pub fn from_records(mut records: Vec<TaskRecord<T>>) -> Timeline<T> {
        records.sort_by_key(|r| (r.start, r.finish));
        for (i, r) in records.iter_mut().enumerate() {
            r.task = TaskId(i);
            r.critical_pred = None;
        }
        let makespan = records
            .iter()
            .map(|r| r.finish)
            .max()
            .unwrap_or(SimTime::ZERO)
            - SimTime::ZERO;
        Timeline { records, makespan }
    }

    /// Total busy time of `resource` across the run.
    pub fn resource_busy(&self, resource: ResourceId) -> SimDuration {
        self.records
            .iter()
            .filter(|r| r.resource == Some(resource))
            .map(|r| r.finish - r.start)
            .sum()
    }

    /// Utilization of `resource` over the makespan, in `0..=1`.
    pub fn resource_utilization(&self, resource: ResourceId) -> f64 {
        if self.makespan == SimDuration::ZERO {
            return 0.0;
        }
        self.resource_busy(resource).nanos() as f64 / self.makespan.nanos() as f64
    }

    /// The critical path: walk back from the last-finishing task through
    /// each task's gating predecessor (last dependency or resource-freer).
    /// Returned front-to-back; its ends span the whole makespan, so the
    /// labels along it name exactly what limited this run.
    pub fn critical_path(&self) -> Vec<TaskId> {
        let Some(last) = self
            .records
            .iter()
            .max_by_key(|r| (r.finish, r.task))
            .map(|r| r.task)
        else {
            return Vec::new();
        };
        let mut path = vec![last];
        let mut cur = last;
        while let Some(pred) = self.records[cur.0].critical_pred {
            path.push(pred);
            cur = pred;
        }
        path.reverse();
        path
    }

    /// Aggregate time on the critical path per label prefix (text before
    /// the first `(` or space), each task named by `label`: a quick answer
    /// to "what limits this run?".
    pub fn critical_path_breakdown<L: AsRef<str>>(
        &self,
        label: impl Fn(&TaskRecord<T>) -> L,
    ) -> Vec<(String, SimDuration)> {
        let mut agg: std::collections::BTreeMap<String, SimDuration> =
            std::collections::BTreeMap::new();
        for id in self.critical_path() {
            let r = &self.records[id.0];
            let name = label(r);
            let key = name
                .as_ref()
                .split(['(', ' '])
                .next()
                .unwrap_or("?")
                .to_string();
            *agg.entry(key).or_default() += r.finish - r.start;
        }
        let mut out: Vec<_> = agg.into_iter().collect();
        out.sort_by_key(|&(_, d)| std::cmp::Reverse(d));
        out
    }
}

/// Errors surfaced while building or running a DAG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A dependency references a task id that does not exist (yet).
    ///
    /// Dependencies must point backwards: the engine only accepts edges to
    /// already-created tasks, which structurally rules out cycles.
    UnknownDependency {
        /// Index of the task being added.
        task: usize,
        /// The nonexistent dependency.
        dep: TaskId,
    },
    /// A task references a resource that was never registered.
    UnknownResource {
        /// Index of the task being added.
        task: usize,
        /// The unregistered resource.
        resource: ResourceId,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownDependency { task, dep } => {
                write!(f, "task {task} depends on unknown task {:?}", dep)
            }
            EngineError::UnknownResource { task, resource } => {
                write!(f, "task {task} uses unknown resource {:?}", resource)
            }
        }
    }
}

impl std::error::Error for EngineError {}

#[derive(Clone, Copy, Debug)]
enum Event {
    TaskFinished(TaskId),
}

struct TaskState<T> {
    resource: Option<ResourceId>,
    duration: SimDuration,
    tag: T,
    unmet_deps: usize,
    ready: Option<SimTime>,
    start: Option<SimTime>,
    finish: Option<SimTime>,
    ready_setter: Option<TaskId>,
    resource_freer: Option<TaskId>,
    /// The task queued behind this one for the same resource.
    next_waiting: Option<TaskId>,
}

/// A resource's state: whether a task holds it, and the FIFO of tasks
/// waiting for it in `(ready time, task id)` order — a list threaded
/// through [`TaskState::next_waiting`], first to last.
#[derive(Clone, Copy, Default)]
struct ResourceState {
    busy: bool,
    first_waiting: Option<TaskId>,
    last_waiting: Option<TaskId>,
}

/// Every task's dependents in one offsets-plus-list array: task `t`'s are
/// `list[offsets[t]..offsets[t + 1]]`, in creation order.
struct Dependents {
    offsets: Vec<usize>,
    list: Vec<TaskId>,
}

impl Dependents {
    /// Counting pass over `(dependency, dependent)` edges given in creation
    /// order of the dependents.
    fn build(tasks: usize, edges: &[(TaskId, TaskId)]) -> Dependents {
        let mut offsets = vec![0usize; tasks + 1];
        for &(dep, _) in edges {
            offsets[dep.0] += 1;
        }
        // Exclusive prefix sum: `offsets[t]` is `t`'s first slot.
        let mut sum = 0;
        for o in &mut offsets {
            let count = *o;
            *o = sum;
            sum += count;
        }
        let mut list = vec![TaskId(0); edges.len()];
        for &(dep, t) in edges {
            list[offsets[dep.0]] = t;
            offsets[dep.0] += 1;
        }
        // Each cursor now sits at its task's end, the next task's start.
        offsets.rotate_right(1);
        offsets[0] = 0;
        Dependents { offsets, list }
    }

    fn of(&self, t: TaskId) -> &[TaskId] {
        &self.list[self.offsets[t.0]..self.offsets[t.0 + 1]]
    }
}

/// Builder + runner for one simulation, over tasks tagged with `T`.
pub struct Engine<T> {
    tasks: Vec<TaskState<T>>,
    /// `(dependency, dependent)` edges, in the order tasks were added.
    edges: Vec<(TaskId, TaskId)>,
    resources: Vec<ResourceState>,
}

impl<T: Copy> Default for Engine<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> Engine<T> {
    /// Fresh empty engine.
    pub fn new() -> Engine<T> {
        Engine::with_capacity(0, 0, 0)
    }

    /// Fresh empty engine with room for `resources`, `tasks` and `edges`
    /// (dependency entries) before any table grows.
    pub fn with_capacity(resources: usize, tasks: usize, edges: usize) -> Engine<T> {
        Engine {
            tasks: Vec::with_capacity(tasks),
            edges: Vec::with_capacity(edges),
            resources: Vec::with_capacity(resources),
        }
    }

    /// Register a serializing resource. Resources are numbered in
    /// registration order; naming them is the caller's business (e.g. a
    /// Gantt chart's row labels).
    pub fn add_resource(&mut self) -> ResourceId {
        let id = ResourceId(self.resources.len());
        self.resources.push(ResourceState::default());
        id
    }

    /// Add a task. Dependencies must reference earlier tasks (see
    /// [`EngineError::UnknownDependency`]).
    pub fn add_task(&mut self, spec: TaskSpec<'_, T>) -> Result<TaskId, EngineError> {
        let id = TaskId(self.tasks.len());
        if let Some(res) = spec.resource {
            if res.0 >= self.resources.len() {
                return Err(EngineError::UnknownResource {
                    task: id.0,
                    resource: res,
                });
            }
        }
        if let Some(&dep) = spec.deps.iter().find(|dep| dep.0 >= id.0) {
            return Err(EngineError::UnknownDependency { task: id.0, dep });
        }
        self.edges.extend(spec.deps.iter().map(|&dep| (dep, id)));
        self.tasks.push(TaskState {
            resource: spec.resource,
            duration: spec.duration,
            tag: spec.tag,
            unmet_deps: spec.deps.len(),
            ready: None,
            start: None,
            finish: None,
            ready_setter: None,
            resource_freer: None,
            next_waiting: None,
        });
        Ok(id)
    }

    /// Run the simulation to completion and consume the engine.
    pub fn run(mut self) -> Timeline<T> {
        let dependents = Dependents::build(self.tasks.len(), &self.edges);
        // Each task finishes once: the heap never outgrows the task count.
        let mut queue: EventQueue<Event> = EventQueue::with_capacity(self.tasks.len());

        // Seed: every task with no dependencies is ready at t=0, in id
        // order so FIFO arbitration matches creation (enqueue) order.
        for i in 0..self.tasks.len() {
            if self.tasks[i].unmet_deps == 0 {
                self.task_became_ready(TaskId(i), SimTime::ZERO, &mut queue);
            }
        }

        while let Some((now, event)) = queue.pop() {
            match event {
                Event::TaskFinished(id) => self.finish_task(id, now, &mut queue, &dependents),
            }
        }

        let makespan = self
            .tasks
            .iter()
            .filter_map(|t| t.finish)
            .max()
            .unwrap_or(SimTime::ZERO)
            - SimTime::ZERO;

        let records = self
            .tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                // Whichever blocker acted later is the critical one; the
                // resource freer matters only if the task actually waited
                // past its ready time.
                let critical_pred = if t.start > t.ready {
                    t.resource_freer.or(t.ready_setter)
                } else {
                    t.ready_setter
                };
                TaskRecord {
                    task: TaskId(i),
                    resource: t.resource,
                    ready: t.ready.unwrap_or(SimTime::ZERO),
                    start: t.start.unwrap_or(SimTime::ZERO),
                    finish: t.finish.unwrap_or(SimTime::ZERO),
                    tag: t.tag,
                    critical_pred,
                }
            })
            .collect();

        Timeline { records, makespan }
    }

    fn task_became_ready(&mut self, id: TaskId, now: SimTime, queue: &mut EventQueue<Event>) {
        debug_assert!(self.tasks[id.0].ready.is_none(), "task readied twice");
        self.tasks[id.0].ready = Some(now);
        match self.tasks[id.0].resource {
            None => self.start_task(id, now, queue),
            Some(res) => {
                let state = &mut self.resources[res.0];
                if state.busy {
                    match state.last_waiting.replace(id) {
                        Some(last) => self.tasks[last.0].next_waiting = Some(id),
                        None => state.first_waiting = Some(id),
                    }
                } else {
                    state.busy = true;
                    self.start_task(id, now, queue);
                }
            }
        }
    }

    fn start_task(&mut self, id: TaskId, now: SimTime, queue: &mut EventQueue<Event>) {
        let task = &mut self.tasks[id.0];
        task.start = Some(now);
        let finish = now + task.duration;
        queue.schedule(finish, Event::TaskFinished(id));
    }

    fn finish_task(
        &mut self,
        id: TaskId,
        now: SimTime,
        queue: &mut EventQueue<Event>,
        dependents: &Dependents,
    ) {
        self.tasks[id.0].finish = Some(now);

        // Free the resource and hand it to the longest-waiting ready task.
        if let Some(res) = self.tasks[id.0].resource {
            let state = &mut self.resources[res.0];
            if let Some(next) = state.first_waiting {
                // Resource stays busy; next task starts immediately.
                state.first_waiting = self.tasks[next.0].next_waiting;
                if state.first_waiting.is_none() {
                    state.last_waiting = None;
                }
                self.tasks[next.0].resource_freer = Some(id);
                self.start_task(next, now, queue);
            } else {
                state.busy = false;
            }
        }

        // Propagate readiness to dependents.
        for &dep in dependents.of(id) {
            let t = &mut self.tasks[dep.0];
            t.unmet_deps -= 1;
            if t.unmet_deps == 0 {
                t.ready_setter = Some(id);
                self.task_became_ready(dep, now, queue);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task<'a>(
        resource: Option<ResourceId>,
        us: u64,
        deps: &'a [TaskId],
        tag: &'static str,
    ) -> TaskSpec<'a, &'static str> {
        TaskSpec {
            resource,
            duration: SimDuration::from_micros(us),
            deps,
            tag,
        }
    }

    #[test]
    fn serial_chain_accumulates() {
        let mut e = Engine::new();
        let r = e.add_resource();
        let a = e.add_task(task(Some(r), 10, &[], "a")).unwrap();
        let b = e.add_task(task(Some(r), 20, &[a], "b")).unwrap();
        let c = e.add_task(task(Some(r), 30, &[b], "c")).unwrap();
        let tl = e.run();
        assert_eq!(tl.makespan, SimDuration::from_micros(60));
        assert_eq!(tl.record(c).start, SimTime(30_000));
        assert_eq!(tl.record(c).finish, SimTime(60_000));
        assert_eq!(tl.resource_utilization(r), 1.0);
    }

    #[test]
    fn independent_tasks_on_distinct_resources_overlap() {
        let mut e = Engine::new();
        let r1 = e.add_resource();
        let r2 = e.add_resource();
        e.add_task(task(Some(r1), 50, &[], "x")).unwrap();
        e.add_task(task(Some(r2), 50, &[], "y")).unwrap();
        let tl = e.run();
        assert_eq!(tl.makespan, SimDuration::from_micros(50));
    }

    #[test]
    fn shared_resource_serializes_in_fifo_order() {
        let mut e = Engine::new();
        let r = e.add_resource();
        let ids: Vec<_> = (0..4)
            .map(|i| {
                e.add_task(task(Some(r), 10, &[], ["t0", "t1", "t2", "t3"][i]))
                    .unwrap()
            })
            .collect();
        let tl = e.run();
        assert_eq!(tl.makespan, SimDuration::from_micros(40));
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(tl.record(*id).start, SimTime(10_000 * i as u64));
        }
    }

    #[test]
    fn pipeline_overlap_matches_fig1_arithmetic() {
        // The paper's Fig. 1: three equal stages (H2D, EXE, D2H) per task.
        // With one stream 2 tasks take 6 units; with enough streams the
        // makespan for 4 tasks is 6 units too — here stages use three
        // distinct resources (link-in, compute, link-out), the idealized
        // platform of Fig. 1.
        let unit = 100u64;
        let build = |streams: usize, tasks: usize| {
            let mut e = Engine::new();
            let h2d = e.add_resource();
            let d2h = e.add_resource();
            let partitions: Vec<_> = (0..streams).map(|_| e.add_resource()).collect();
            let mut last_in_stream: Vec<Option<TaskId>> = vec![None; streams];
            for t in 0..tasks {
                let s = t % streams;
                let dep: Vec<TaskId> = last_in_stream[s].into_iter().collect();
                let a = e.add_task(task(Some(h2d), unit, &dep, "h2d")).unwrap();
                let b = e
                    .add_task(task(Some(partitions[s]), unit, &[a], "exe"))
                    .unwrap();
                let c = e.add_task(task(Some(d2h), unit, &[b], "d2h")).unwrap();
                last_in_stream[s] = Some(c);
            }
            e.run().makespan
        };
        // Single stream, 2 tasks: fully serial ⇒ 6 units.
        assert_eq!(build(1, 2), SimDuration::from_micros(600));
        // Four streams, 4 tasks: software pipeline ⇒ 6 units for 4 tasks.
        assert_eq!(build(4, 4), SimDuration::from_micros(600));
    }

    #[test]
    fn control_tasks_take_no_resource() {
        let mut e = Engine::new();
        let r = e.add_resource();
        let a = e.add_task(task(Some(r), 10, &[], "a")).unwrap();
        let b = e.add_task(task(Some(r), 10, &[], "b")).unwrap();
        // Barrier joining a and b, then a dependent task.
        let bar = e
            .add_task(TaskSpec {
                resource: None,
                duration: SimDuration::ZERO,
                deps: &[a, b],
                tag: "barrier",
            })
            .unwrap();
        let c = e.add_task(task(Some(r), 10, &[bar], "c")).unwrap();
        let tl = e.run();
        assert_eq!(tl.record(bar).start, tl.record(bar).finish);
        assert_eq!(tl.record(c).start, SimTime(20_000));
        assert_eq!(tl.makespan, SimDuration::from_micros(30));
    }

    #[test]
    fn forward_only_dependencies_enforced() {
        let mut e = Engine::new();
        let err = e.add_task(task(None, 0, &[TaskId(7)], "bad")).unwrap_err();
        assert_eq!(
            err,
            EngineError::UnknownDependency {
                task: 0,
                dep: TaskId(7)
            }
        );
    }

    #[test]
    fn unknown_resource_rejected() {
        let mut e = Engine::new();
        let err = e
            .add_task(task(Some(ResourceId(3)), 1, &[], "bad"))
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownResource { .. }));
    }

    #[test]
    fn fifo_arbitration_prefers_earlier_ready_tasks() {
        let mut e = Engine::new();
        let r = e.add_resource();
        let gate = e.add_task(task(None, 5, &[], "gate")).unwrap();
        // w becomes ready at t=5, but q (ready at t=0) must win the resource.
        let q = e.add_task(task(Some(r), 50, &[], "q")).unwrap();
        let w = e.add_task(task(Some(r), 10, &[gate], "w")).unwrap();
        let tl = e.run();
        assert_eq!(tl.record(q).start, SimTime::ZERO);
        assert_eq!(tl.record(w).start, SimTime(50_000));
        assert_eq!(tl.record(w).ready, SimTime(5_000));
    }

    #[test]
    fn duplicate_dependencies_release_once() {
        // `b` lists `a` twice. Readied twice, it would hold `r` twice and
        // push `c` (ready at the same instant, created later) back.
        let mut e = Engine::new();
        let link = e.add_resource();
        let r = e.add_resource();
        let a = e.add_task(task(Some(link), 10, &[], "a")).unwrap();
        let b = e.add_task(task(Some(r), 5, &[a, a], "b")).unwrap();
        let c = e.add_task(task(Some(r), 5, &[a], "c")).unwrap();
        let tl = e.run();
        assert_eq!(tl.record(b).ready, SimTime(10_000));
        assert_eq!(tl.record(b).start, SimTime(10_000));
        assert_eq!(tl.record(b).critical_pred, Some(a));
        assert_eq!(tl.record(c).start, SimTime(15_000));
        assert_eq!(tl.makespan, SimDuration::from_micros(20));
    }

    #[test]
    fn fan_out_releases_in_creation_order() {
        // Three waiters on one resource, all released by `gate`'s finish
        // (their edges interleaved with an unrelated one): they take the
        // resource in task-id order.
        let mut e = Engine::new();
        let r = e.add_resource();
        let other = e.add_task(task(None, 1, &[], "other")).unwrap();
        let gate = e.add_task(task(None, 10, &[], "gate")).unwrap();
        let w0 = e.add_task(task(Some(r), 5, &[other, gate], "w0")).unwrap();
        e.add_task(task(None, 0, &[other], "x")).unwrap();
        let w1 = e.add_task(task(Some(r), 5, &[gate], "w1")).unwrap();
        let w2 = e.add_task(task(Some(r), 5, &[gate, other], "w2")).unwrap();
        let tl = e.run();
        for (i, w) in [w0, w1, w2].into_iter().enumerate() {
            assert_eq!(tl.record(w).ready, SimTime(10_000));
            assert_eq!(tl.record(w).start, SimTime(10_000 + 5_000 * i as u64));
        }
    }

    #[test]
    fn from_records_sorts_renumbers_and_spans() {
        let recs = vec![
            TaskRecord::measured(Some(ResourceId(1)), SimTime(50), SimTime(90), "late"),
            TaskRecord::measured(None, SimTime(0), SimTime(10), "early"),
            TaskRecord::measured(Some(ResourceId(0)), SimTime(5), SimTime(70), "mid"),
        ];
        let tl = Timeline::from_records(recs);
        assert_eq!(tl.makespan, SimDuration(90));
        let labels: Vec<&str> = tl.records.iter().map(|r| r.tag).collect();
        assert_eq!(labels, vec!["early", "mid", "late"]);
        for (i, r) in tl.records.iter().enumerate() {
            assert_eq!(r.task, TaskId(i));
            assert_eq!(r.ready, r.start);
            assert_eq!(r.critical_pred, None);
        }
        // The analysis helpers work on measured records unchanged.
        assert_eq!(tl.resource_busy(ResourceId(0)), SimDuration(65));
        assert!(Timeline::<()>::from_records(Vec::new()).records.is_empty());
    }

    #[test]
    fn empty_engine_runs_to_zero_makespan() {
        let tl = Engine::<()>::new().run();
        assert_eq!(tl.makespan, SimDuration::ZERO);
        assert!(tl.records.is_empty());
    }

    #[test]
    fn resource_busy_accounting() {
        let mut e = Engine::new();
        let r = e.add_resource();
        e.add_task(task(Some(r), 10, &[], "a")).unwrap();
        let gap = e.add_task(task(None, 100, &[], "wait")).unwrap();
        e.add_task(task(Some(r), 20, &[gap], "b")).unwrap();
        let tl = e.run();
        assert_eq!(tl.resource_busy(r), SimDuration::from_micros(30));
        assert!(tl.resource_utilization(r) < 0.5);
    }
}

#[cfg(test)]
mod critical_path_tests {
    use super::*;

    fn task<'a>(
        resource: Option<ResourceId>,
        us: u64,
        deps: &'a [TaskId],
        tag: &'static str,
    ) -> TaskSpec<'a, &'static str> {
        TaskSpec {
            resource,
            duration: SimDuration::from_micros(us),
            deps,
            tag,
        }
    }

    #[test]
    fn serial_chain_is_its_own_critical_path() {
        let mut e = Engine::new();
        let r = e.add_resource();
        let a = e.add_task(task(Some(r), 10, &[], "a")).unwrap();
        let b = e.add_task(task(Some(r), 10, &[a], "b")).unwrap();
        let c = e.add_task(task(Some(r), 10, &[b], "c")).unwrap();
        let tl = e.run();
        assert_eq!(tl.critical_path(), vec![a, b, c]);
    }

    #[test]
    fn resource_wait_shows_up_on_the_path() {
        // Two independent tasks on one resource: the second's critical
        // predecessor is the first (it freed the resource).
        let mut e = Engine::new();
        let r = e.add_resource();
        let a = e.add_task(task(Some(r), 10, &[], "a")).unwrap();
        let b = e.add_task(task(Some(r), 20, &[], "b")).unwrap();
        let tl = e.run();
        assert_eq!(tl.critical_path(), vec![a, b]);
    }

    #[test]
    fn parallel_branches_pick_the_longer_one() {
        let mut e = Engine::new();
        let r1 = e.add_resource();
        let r2 = e.add_resource();
        let short = e.add_task(task(Some(r1), 5, &[], "short")).unwrap();
        let long = e.add_task(task(Some(r2), 50, &[], "long")).unwrap();
        let join = e.add_task(task(None, 1, &[short, long], "join")).unwrap();
        let tl = e.run();
        let path = tl.critical_path();
        assert_eq!(path, vec![long, join]);
        let _ = short;
    }

    #[test]
    fn path_spans_the_whole_makespan() {
        // Pipeline: the path's first task starts at 0 and its last ends at
        // the makespan.
        let mut e = Engine::new();
        let link = e.add_resource();
        let part = e.add_resource();
        let mut last = None;
        for _ in 0..6 {
            let deps: Vec<TaskId> = last.into_iter().collect();
            let h = e.add_task(task(Some(link), 7, &deps, "h")).unwrap();
            let k = e.add_task(task(Some(part), 13, &[h], "k")).unwrap();
            last = Some(k);
        }
        let tl = e.run();
        let path = tl.critical_path();
        let first = tl.record(path[0]);
        let last_rec = tl.record(*path.last().unwrap());
        assert_eq!(first.start, SimTime::ZERO);
        assert_eq!(last_rec.finish - SimTime::ZERO, tl.makespan);
        // Consecutive path entries touch (no unexplained gaps at handoff).
        for w in path.windows(2) {
            assert!(tl.record(w[1]).start >= tl.record(w[0]).finish);
        }
    }

    #[test]
    fn breakdown_aggregates_by_label_prefix() {
        let mut e = Engine::new();
        let r = e.add_resource();
        let a = e.add_task(task(Some(r), 10, &[], "h2d(0)")).unwrap();
        let b = e.add_task(task(Some(r), 30, &[a], "gemm(0,0)")).unwrap();
        let _c = e.add_task(task(Some(r), 20, &[b], "gemm(0,1)")).unwrap();
        let tl = e.run();
        let breakdown = tl.critical_path_breakdown(|r| r.tag);
        assert_eq!(breakdown[0].0, "gemm");
        assert_eq!(breakdown[0].1, SimDuration::from_micros(50));
        assert_eq!(breakdown[1].0, "h2d");
    }

    #[test]
    fn empty_timeline_has_empty_path() {
        let tl = Engine::<()>::new().run();
        assert!(tl.critical_path().is_empty());
        assert!(tl.critical_path_breakdown(|_| "").is_empty());
    }
}
