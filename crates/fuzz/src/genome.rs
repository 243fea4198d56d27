//! Program genomes: a mutation-friendly, text-serializable encoding of
//! runtime programs.
//!
//! A [`ProgramSpec`] is the fuzzer's genotype. It is deliberately more
//! constrained than a raw [`Program`]:
//!
//! * one device, at most [`MAX_LANES`] streams and [`MAX_PARTITIONS`]
//!   partitions — the executors' panic-free envelope (the native backend
//!   keeps a single real device space, so multi-device programs would
//!   falsely share storage);
//! * a **fixed buffer palette**: every genome addresses the same
//!   [`N_BUFS`] buffers with lengths [`buf_len`], so one long-lived
//!   [`Context`](hstreams::context::Context) per geometry serves the whole
//!   corpus and no mutation can outgrow the allocation table;
//! * kernels are *re-encoded* as [`mix_kernel`]s — deterministic dual-face
//!   bodies — so every genome is executable on the simulator, the native
//!   backend, and the reference interpreter with bit-comparable results.
//!
//! [`ProgramSpec::repair`] restores the structural invariants after any
//! mutation (dense event numbering, one record per event, no self-lane
//! waits, equal barrier counts), which means `to_program()` output always
//! passes [`Program::validate`] — the interesting rejections are the
//! *semantic* ones (races, deadlocks) the checker must catch.
//!
//! Genomes serialize to a line-oriented text format ([`ProgramSpec::to_text`]
//! / [`ProgramSpec::parse`]) so minimized reproducers and the committed
//! corpus are reviewable diffs, not binary blobs.

use hstreams::action::Action;
use hstreams::fault::FaultPlan;
use hstreams::program::{EventSite, Program, StreamPlacement, StreamRecord};
use hstreams::sched::SchedulerKind;
use hstreams::testutil::mix_kernel;
use hstreams::types::{BufId, EventId, StreamId};
use micsim::device::DeviceId;
use micsim::pcie::Direction;

/// Number of buffers in the fixed palette every genome addresses.
pub const N_BUFS: usize = 32;

/// Maximum streams (lanes) a genome may carry.
pub const MAX_LANES: usize = 8;

/// Maximum partitions a genome may request.
pub const MAX_PARTITIONS: usize = 4;

/// Maximum genes per lane (keeps reference interpretation cheap).
pub const MAX_GENES_PER_LANE: usize = 32;

/// Simulated work per [`Gene::Kernel`] work unit, in device work units.
pub const WORK_UNIT: f64 = 1e5;

/// Length of palette buffer `i` — small, varied, deliberately including
/// non-powers-of-two so modulo-indexed reads exercise uneven shapes.
pub fn buf_len(i: usize) -> usize {
    [4, 6, 8, 12, 16, 24, 32, 48][i % 8]
}

/// The palette lengths for all [`N_BUFS`] buffers, in id order — the
/// `lens` argument reference interpreters expect.
pub fn buf_lens() -> Vec<usize> {
    (0..N_BUFS).map(buf_len).collect()
}

/// One action in a lane, in genome encoding. Events are numbered densely
/// `0..event_count`; each id is recorded by exactly one [`Gene::Record`]
/// (enforced by [`ProgramSpec::repair`]). Barriers carry no number — the
/// `k`-th barrier gene of a lane is barrier `k`, which joins with every
/// other lane's `k`-th barrier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Gene {
    /// Upload palette buffer `b` to the device.
    H2D(usize),
    /// Download palette buffer `b` from the device.
    D2H(usize),
    /// A deterministic [`mix_kernel`] launch.
    Kernel {
        /// Palette buffers read (disjoint from `writes` after repair).
        reads: Vec<usize>,
        /// Palette buffers written.
        writes: Vec<usize>,
        /// Simulated cost in [`WORK_UNIT`]s (tile size; split/merge target).
        work: u32,
        /// Run on the host instead of a device partition.
        host: bool,
    },
    /// Record event `e` here.
    Record(usize),
    /// Block until event `e` has been recorded.
    Wait(usize),
    /// Join with every lane's same-ordinal barrier.
    Barrier,
}

/// Where a spliced fault plan strikes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// Fail the transfer at `(lane, gene index)`.
    Transfer {
        /// Lane holding the doomed transfer.
        lane: usize,
        /// Gene (= action) index within the lane.
        index: usize,
    },
    /// Panic the kernel at `(lane, gene index)`.
    KernelPanic {
        /// Lane holding the doomed kernel.
        lane: usize,
        /// Gene (= action) index within the lane.
        index: usize,
    },
    /// Fail the device materialization of palette buffer `buf`.
    Alloc {
        /// The doomed buffer.
        buf: usize,
    },
}

/// A deterministic single-site fault plan spliced into a genome. `attempts`
/// is how many times the forced transfer failure re-fires — above the
/// retry budget it becomes unrecoverable on both executors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed for the plan's (here unused, rate-free) fault die.
    pub seed: u64,
    /// Forced-transfer failure attempts (≥ 1).
    pub attempts: u32,
    /// The single forced site.
    pub site: FaultSite,
}

impl FaultSpec {
    /// Lower to a runtime [`FaultPlan`]. Rates are zero — only the forced
    /// site fires, so fault behavior is a pure function of the genome.
    pub fn to_plan(&self) -> FaultPlan {
        let plan = FaultPlan::seeded(self.seed);
        match self.site {
            FaultSite::Transfer { lane, index } => plan
                .transfer_failures(0.0, self.attempts)
                .fail_transfer_at(lane, index),
            FaultSite::KernelPanic { lane, index } => plan.panic_kernel_at(lane, index),
            FaultSite::Alloc { buf } => plan.fail_alloc(buf),
        }
    }
}

/// A full program genome. See the [module docs](self) for the invariants
/// [`ProgramSpec::repair`] maintains.
#[derive(Clone, Debug, PartialEq)]
pub struct ProgramSpec {
    /// Partition count the context is built with (`1..=MAX_PARTITIONS`).
    pub partitions: usize,
    /// Partition each lane's stream is placed on (`placements[lane]`).
    pub placements: Vec<usize>,
    /// The lanes: `lanes[s]` is stream `s`'s gene sequence.
    pub lanes: Vec<Vec<Gene>>,
    /// Scheduler the executors plan with.
    pub scheduler: SchedulerKind,
    /// Optional spliced fault plan.
    pub fault: Option<FaultSpec>,
}

impl ProgramSpec {
    /// A minimal clean genome: one lane, one upload–kernel–download tile.
    pub fn minimal() -> ProgramSpec {
        ProgramSpec {
            partitions: 1,
            placements: vec![0],
            lanes: vec![vec![
                Gene::H2D(0),
                Gene::Kernel {
                    reads: vec![0],
                    writes: vec![1],
                    work: 4,
                    host: false,
                },
                Gene::D2H(1),
            ]],
            scheduler: SchedulerKind::Fifo,
            fault: None,
        }
    }

    /// Number of events (max recorded id + 1; dense after repair).
    pub fn event_count(&self) -> usize {
        self.lanes
            .iter()
            .flatten()
            .filter_map(|g| match g {
                Gene::Record(e) => Some(e + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Barrier count (max barrier genes in any lane; uniform after repair).
    pub fn barrier_count(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| l.iter().filter(|g| matches!(g, Gene::Barrier)).count())
            .max()
            .unwrap_or(0)
    }

    /// Total genes across all lanes.
    pub fn gene_count(&self) -> usize {
        self.lanes.iter().map(Vec::len).sum()
    }

    /// Streams per partition this genome needs from its context: the
    /// largest number of lanes sharing one partition (at least 1).
    pub fn streams_per_partition(&self) -> usize {
        let n = self.partitions.max(1);
        let mut counts = vec![0usize; n];
        for &p in &self.placements {
            counts[p % n] += 1;
        }
        counts.into_iter().max().unwrap_or(0).max(1)
    }

    /// Lower to a runtime [`Program`]. Gene index equals action index, so
    /// [`FaultSite`] coordinates address the program directly. Kernel
    /// labels are position-derived (`k<lane>_<index>`), which makes
    /// outputs a pure function of the genome.
    pub fn to_program(&self) -> Program {
        let mut p = Program::default();
        for (i, _) in self.lanes.iter().enumerate() {
            p.streams.push(StreamRecord {
                id: StreamId(i),
                placement: StreamPlacement {
                    device: DeviceId(0),
                    partition: self.placements.get(i).copied().unwrap_or(0),
                },
                actions: vec![],
            });
        }
        p.events = vec![
            EventSite {
                stream: StreamId(0),
                action_index: 0,
            };
            self.event_count()
        ];
        for (i, genes) in self.lanes.iter().enumerate() {
            let mut next_barrier = 0usize;
            for g in genes {
                let ai = p.streams[i].actions.len();
                let action = match g {
                    Gene::H2D(b) => Action::Transfer {
                        dir: Direction::HostToDevice,
                        buf: BufId(b % N_BUFS),
                    },
                    Gene::D2H(b) => Action::Transfer {
                        dir: Direction::DeviceToHost,
                        buf: BufId(b % N_BUFS),
                    },
                    Gene::Kernel {
                        reads,
                        writes,
                        work,
                        host,
                    } => {
                        let mut desc = mix_kernel(
                            format!("k{i}_{ai}"),
                            reads.iter().map(|&b| BufId(b % N_BUFS)),
                            writes.iter().map(|&b| BufId(b % N_BUFS)),
                            f64::from(*work) * WORK_UNIT,
                        );
                        if *host {
                            desc = desc.on_host();
                        }
                        Action::Kernel(desc)
                    }
                    Gene::Record(e) => {
                        p.events[*e] = EventSite {
                            stream: StreamId(i),
                            action_index: ai,
                        };
                        Action::RecordEvent(EventId(*e))
                    }
                    Gene::Wait(e) => Action::WaitEvent(EventId(*e)),
                    Gene::Barrier => {
                        let n = next_barrier;
                        next_barrier += 1;
                        Action::Barrier(n)
                    }
                };
                p.streams[i].actions.push(action);
            }
        }
        p.barriers = self.barrier_count();
        p
    }

    /// Restore structural invariants after a mutation (or a capture):
    ///
    /// * clamp geometry: `1..=MAX_PARTITIONS` partitions, `1..=MAX_LANES`
    ///   lanes of at most [`MAX_GENES_PER_LANE`] genes, placements in
    ///   range;
    /// * clamp buffer references into the palette and make kernel
    ///   read/write sets disjoint (writes win) and duplicate-free;
    /// * renumber events densely in record order, drop duplicate records,
    ///   orphaned waits, and waits in their own record's lane (self-waits
    ///   can never complete and are rejected by `validate`);
    /// * pad every lane to the same barrier count.
    ///
    /// Idempotent; after repair, `to_program().validate()` succeeds.
    pub fn repair(&mut self) {
        self.partitions = self.partitions.clamp(1, MAX_PARTITIONS);
        if self.lanes.is_empty() {
            self.lanes.push(Vec::new());
        }
        self.lanes.truncate(MAX_LANES);
        for lane in &mut self.lanes {
            lane.truncate(MAX_GENES_PER_LANE);
        }
        self.placements.resize(self.lanes.len(), 0);
        for p in &mut self.placements {
            *p %= self.partitions;
        }

        // Buffer references into the palette; kernel sets disjoint.
        for lane in &mut self.lanes {
            for g in lane {
                match g {
                    Gene::H2D(b) | Gene::D2H(b) => *b %= N_BUFS,
                    Gene::Kernel {
                        reads,
                        writes,
                        work,
                        ..
                    } => {
                        for b in reads.iter_mut().chain(writes.iter_mut()) {
                            *b %= N_BUFS;
                        }
                        dedup_in_order(writes);
                        dedup_in_order(reads);
                        reads.retain(|b| !writes.contains(b));
                        *work = (*work).clamp(1, 1 << 10);
                    }
                    _ => {}
                }
            }
        }

        // Events: first record of an id wins and assigns the dense new id.
        let mut remap: std::collections::BTreeMap<usize, (usize, usize)> =
            std::collections::BTreeMap::new(); // old id -> (new id, record lane)
        for (li, lane) in self.lanes.iter().enumerate() {
            for g in lane {
                if let Gene::Record(e) = g {
                    let next = remap.len();
                    remap.entry(*e).or_insert((next, li));
                }
            }
        }
        for (li, lane) in self.lanes.iter_mut().enumerate() {
            let mut recorded: Vec<bool> = vec![false; remap.len()];
            lane.retain_mut(|g| match g {
                Gene::Record(e) => match remap.get(e) {
                    Some(&(new, rl)) if rl == li && !recorded[new] => {
                        recorded[new] = true;
                        *e = new;
                        true
                    }
                    _ => false,
                },
                Gene::Wait(e) => match remap.get(e) {
                    Some(&(new, rl)) if rl != li => {
                        *e = new;
                        true
                    }
                    _ => false,
                },
                _ => true,
            });
        }

        // Fault site still meaningful? Clamp into the (possibly shrunk)
        // gene table; drop it if its lane vanished.
        if let Some(f) = &mut self.fault {
            f.attempts = f.attempts.clamp(1, 8);
            let ok = match &mut f.site {
                FaultSite::Transfer { lane, index } | FaultSite::KernelPanic { lane, index } => {
                    if let Some(l) = self.lanes.get(*lane) {
                        if l.is_empty() {
                            false
                        } else {
                            *index %= l.len();
                            true
                        }
                    } else {
                        false
                    }
                }
                FaultSite::Alloc { buf } => {
                    *buf %= N_BUFS;
                    true
                }
            };
            if !ok {
                self.fault = None;
            }
        }

        // Equalize barrier counts by padding at lane ends.
        let target = self.barrier_count();
        for lane in &mut self.lanes {
            let have = lane.iter().filter(|g| matches!(g, Gene::Barrier)).count();
            for _ in have..target {
                lane.push(Gene::Barrier);
            }
        }
    }

    /// Capture a runtime [`Program`] as a genome (structure only): kernel
    /// identities are discarded and re-encoded as [`mix_kernel`]s, devices
    /// are folded onto device 0, buffer ids wrap into the palette, and
    /// [`repair`](Self::repair) is applied. The capture preserves the
    /// *shape* — lanes, placements, transfer/kernel/sync structure — which
    /// is what seeds the corpus with realistic app skeletons.
    pub fn from_program(p: &Program, scheduler: SchedulerKind) -> ProgramSpec {
        let partitions = p
            .streams
            .iter()
            .map(|s| s.placement.partition + 1)
            .max()
            .unwrap_or(1)
            .min(MAX_PARTITIONS);
        let mut spec = ProgramSpec {
            partitions,
            placements: p
                .streams
                .iter()
                .map(|s| s.placement.partition % partitions)
                .collect(),
            lanes: p
                .streams
                .iter()
                .map(|s| {
                    s.actions
                        .iter()
                        .map(|a| match a {
                            Action::Transfer {
                                dir: Direction::HostToDevice,
                                buf,
                            } => Gene::H2D(buf.0 % N_BUFS),
                            Action::Transfer {
                                dir: Direction::DeviceToHost,
                                buf,
                            } => Gene::D2H(buf.0 % N_BUFS),
                            Action::Kernel(desc) => Gene::Kernel {
                                reads: desc.reads.iter().map(|b| b.0 % N_BUFS).collect(),
                                writes: desc.writes.iter().map(|b| b.0 % N_BUFS).collect(),
                                work: ((desc.work / WORK_UNIT).ceil() as u32).clamp(1, 1 << 10),
                                host: desc.host,
                            },
                            Action::RecordEvent(e) => Gene::Record(e.0),
                            Action::WaitEvent(e) => Gene::Wait(e.0),
                            Action::Barrier(_) => Gene::Barrier,
                        })
                        .collect()
                })
                .collect(),
            scheduler,
            fault: None,
        };
        spec.repair();
        spec
    }

    /// Serialize to the reviewable line format [`parse`](Self::parse)
    /// reads back. Stable: equal specs produce byte-equal text.
    pub fn to_text(&self) -> String {
        let mut out = String::from("streamfuzz v1\n");
        out.push_str(&format!("partitions {}\n", self.partitions));
        out.push_str(&format!("scheduler {}\n", self.scheduler.label()));
        let placements: Vec<String> = self.placements.iter().map(ToString::to_string).collect();
        out.push_str(&format!("placements {}\n", placements.join(" ")));
        for lane in &self.lanes {
            let genes: Vec<String> = lane.iter().map(gene_to_text).collect();
            out.push_str(&format!("lane {}\n", genes.join(" ; ")));
        }
        if let Some(f) = &self.fault {
            let site = match f.site {
                FaultSite::Transfer { lane, index } => format!("transfer {lane} {index}"),
                FaultSite::KernelPanic { lane, index } => format!("panic {lane} {index}"),
                FaultSite::Alloc { buf } => format!("alloc {buf}"),
            };
            out.push_str(&format!("fault {} {} {site}\n", f.seed, f.attempts));
        }
        out.push_str("end\n");
        out
    }

    /// Parse the [`to_text`](Self::to_text) format. Lines may be blank or
    /// `#`-comments. Errors name the offending line.
    pub fn parse(text: &str) -> Result<ProgramSpec, String> {
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        let header = lines.next().ok_or("empty genome")?;
        if header != "streamfuzz v1" {
            return Err(format!("bad header {header:?}"));
        }
        let mut spec = ProgramSpec {
            partitions: 1,
            placements: Vec::new(),
            lanes: Vec::new(),
            scheduler: SchedulerKind::Fifo,
            fault: None,
        };
        for line in lines {
            let mut toks = line.split_whitespace();
            let key = toks.next().unwrap_or_default();
            match key {
                "end" => return Ok(spec),
                "partitions" => {
                    spec.partitions = parse_num(toks.next(), line)?;
                }
                "scheduler" => {
                    let label = toks
                        .next()
                        .ok_or_else(|| format!("bare scheduler: {line}"))?;
                    spec.scheduler = SchedulerKind::parse(label)
                        .ok_or_else(|| format!("unknown scheduler {label:?}"))?;
                }
                "placements" => {
                    spec.placements = toks
                        .map(|t| parse_num(Some(t), line))
                        .collect::<Result<_, _>>()?;
                }
                "lane" => {
                    let rest = line.strip_prefix("lane").unwrap_or("").trim();
                    let mut genes = Vec::new();
                    if !rest.is_empty() {
                        for chunk in rest.split(';') {
                            genes.push(gene_from_text(chunk.trim())?);
                        }
                    }
                    spec.lanes.push(genes);
                }
                "fault" => {
                    let seed: u64 = parse_num(toks.next(), line)?;
                    let attempts: u32 = parse_num(toks.next(), line)?;
                    let kind = toks.next().ok_or_else(|| format!("bare fault: {line}"))?;
                    let site = match kind {
                        "transfer" => FaultSite::Transfer {
                            lane: parse_num(toks.next(), line)?,
                            index: parse_num(toks.next(), line)?,
                        },
                        "panic" => FaultSite::KernelPanic {
                            lane: parse_num(toks.next(), line)?,
                            index: parse_num(toks.next(), line)?,
                        },
                        "alloc" => FaultSite::Alloc {
                            buf: parse_num(toks.next(), line)?,
                        },
                        other => return Err(format!("unknown fault site {other:?}")),
                    };
                    spec.fault = Some(FaultSpec {
                        seed,
                        attempts,
                        site,
                    });
                }
                other => return Err(format!("unknown directive {other:?}")),
            }
        }
        Err("missing `end`".to_string())
    }
}

fn dedup_in_order(v: &mut Vec<usize>) {
    let mut seen = [false; N_BUFS];
    v.retain(|&b| {
        let fresh = !seen[b % N_BUFS];
        seen[b % N_BUFS] = true;
        fresh
    });
}

fn gene_to_text(g: &Gene) -> String {
    match g {
        Gene::H2D(b) => format!("h2d {b}"),
        Gene::D2H(b) => format!("d2h {b}"),
        Gene::Record(e) => format!("rec {e}"),
        Gene::Wait(e) => format!("wait {e}"),
        Gene::Barrier => "bar".to_string(),
        Gene::Kernel {
            reads,
            writes,
            work,
            host,
        } => {
            let r: Vec<String> = reads.iter().map(ToString::to_string).collect();
            let w: Vec<String> = writes.iter().map(ToString::to_string).collect();
            format!(
                "k {} {work} r {} w {}",
                if *host { "host" } else { "dev" },
                r.join(" "),
                w.join(" ")
            )
        }
    }
}

fn gene_from_text(s: &str) -> Result<Gene, String> {
    let mut toks = s.split_whitespace();
    let key = toks.next().ok_or("empty gene")?;
    match key {
        "h2d" => Ok(Gene::H2D(parse_num(toks.next(), s)?)),
        "d2h" => Ok(Gene::D2H(parse_num(toks.next(), s)?)),
        "rec" => Ok(Gene::Record(parse_num(toks.next(), s)?)),
        "wait" => Ok(Gene::Wait(parse_num(toks.next(), s)?)),
        "bar" => Ok(Gene::Barrier),
        "k" => {
            let host = match toks.next() {
                Some("host") => true,
                Some("dev") => false,
                other => return Err(format!("bad kernel face {other:?} in {s:?}")),
            };
            let work: u32 = parse_num(toks.next(), s)?;
            let mut reads = Vec::new();
            let mut writes = Vec::new();
            let mut into_writes = false;
            for t in toks {
                match t {
                    "r" => into_writes = false,
                    "w" => into_writes = true,
                    n => {
                        let b = parse_num(Some(n), s)?;
                        if into_writes {
                            writes.push(b);
                        } else {
                            reads.push(b);
                        }
                    }
                }
            }
            Ok(Gene::Kernel {
                reads,
                writes,
                work,
                host,
            })
        }
        other => Err(format!("unknown gene {other:?}")),
    }
}

fn parse_num<T: std::str::FromStr>(tok: Option<&str>, ctx: &str) -> Result<T, String> {
    tok.ok_or_else(|| format!("missing number in {ctx:?}"))?
        .parse()
        .map_err(|_| format!("bad number in {ctx:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hstreams::testutil::{build_chained, build_synced};

    fn demo() -> ProgramSpec {
        let mut s = ProgramSpec {
            partitions: 2,
            placements: vec![0, 1],
            lanes: vec![
                vec![
                    Gene::H2D(0),
                    Gene::Kernel {
                        reads: vec![0],
                        writes: vec![1],
                        work: 3,
                        host: false,
                    },
                    Gene::Record(0),
                    Gene::Barrier,
                ],
                vec![Gene::Wait(0), Gene::D2H(1), Gene::Barrier],
            ],
            scheduler: SchedulerKind::ListHeft,
            fault: Some(FaultSpec {
                seed: 7,
                attempts: 2,
                site: FaultSite::Transfer { lane: 0, index: 0 },
            }),
        };
        s.repair();
        s
    }

    #[test]
    fn repaired_specs_produce_valid_programs() {
        let s = demo();
        let p = s.to_program();
        p.validate().expect("repaired genome must validate");
        assert_eq!(p.barriers, 1);
        assert_eq!(p.events.len(), 1);
    }

    #[test]
    fn text_round_trip_is_exact() {
        let s = demo();
        let text = s.to_text();
        let back = ProgramSpec::parse(&text).expect("parse own output");
        assert_eq!(s, back);
        assert_eq!(text, back.to_text());
    }

    #[test]
    fn repair_is_idempotent() {
        let mut a = demo();
        let b = a.clone();
        a.repair();
        assert_eq!(a, b);
    }

    #[test]
    fn repair_fixes_broken_structure() {
        let mut s = ProgramSpec {
            partitions: 99,
            placements: vec![17],
            lanes: vec![
                vec![
                    Gene::Record(5),
                    Gene::Record(5), // duplicate record: dropped
                    Gene::Wait(5),   // self-lane wait: dropped
                    Gene::Wait(9),   // orphan wait: dropped
                    Gene::H2D(1000), // clamped into palette
                    Gene::Kernel {
                        reads: vec![3, 3, 7],
                        writes: vec![3], // overlaps reads: reads lose
                        work: 0,
                        host: false,
                    },
                    Gene::Barrier,
                ],
                vec![Gene::Wait(5)],
            ],
            scheduler: SchedulerKind::Fifo,
            fault: None,
        };
        s.repair();
        assert_eq!(s.partitions, MAX_PARTITIONS);
        assert_eq!(s.event_count(), 1);
        assert_eq!(s.barrier_count(), 1);
        assert_eq!(s.lanes[1].len(), 2); // kept cross-lane wait + padded barrier
        let p = s.to_program();
        p.validate().expect("repaired");
    }

    #[test]
    fn capture_of_generated_programs_round_trips_valid() {
        for p in [
            build_synced(3, &[(0, 0), (1, 1), (2, 0)]),
            build_chained(&[2, 1], &[(0, 0)], 2, 12),
        ] {
            let spec = ProgramSpec::from_program(&p, SchedulerKind::Fifo);
            let q = spec.to_program();
            q.validate().expect("captured genome validates");
            assert_eq!(q.streams.len(), p.streams.len());
            assert_eq!(q.events.len(), p.events.len());
        }
    }

    #[test]
    fn fault_spec_lowers_to_forced_site_plan() {
        let f = FaultSpec {
            seed: 3,
            attempts: 5,
            site: FaultSite::Transfer { lane: 1, index: 0 },
        };
        let plan = f.to_plan();
        assert_eq!(plan.transfer_fail_attempts(1, 0), 5);
        assert_eq!(plan.transfer_fail_attempts(0, 0), 0);
        assert!(!plan.kernel_panics_at(0, 0));
    }
}
