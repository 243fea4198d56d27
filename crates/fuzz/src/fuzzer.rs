//! The feedback-driven fuzzing loop.
//!
//! [`Fuzzer`] owns the corpus, the seen-signal set and the findings log.
//! Each iteration deterministically derives a parent pick and a mutation
//! seed from the fuzzer seed and the execution counter, mutates the
//! parent, and runs the child through the **cheap oracles** (checker +
//! simulator). Only children that light up a novel signal — or disagree —
//! graduate to the **full differential pass** (native executor, reference
//! interpreter, fault agreement) and are retained with their novelty
//! attached.
//!
//! Every disagreement is [shrunk](crate::shrink()) to a minimal reproducer
//! and recorded as a [`Finding`] whose serialized genome is ready to
//! commit as a regression test.
//!
//! Determinism contract: with the same [`FuzzerConfig`], the same seed
//! corpus (same order) and the same execution budget, two fuzzer
//! instances produce byte-identical corpus evolution —
//! [`Fuzzer::evolution_hash`] folds every retained entry, its operator
//! lineage, its novel signals and every finding into one number
//! `tests/fuzz_regressions.rs` compares across two fresh runs.

use std::collections::{BTreeMap, BTreeSet};

use hstreams::testutil::{fnv64, splitmix64};

use crate::genome::ProgramSpec;
use crate::harness::Harness;
use crate::mutate::mutate;
use crate::shrink::shrink;
use crate::signals::family;

/// Tuning for a fuzzing session.
#[derive(Clone, Copy, Debug)]
pub struct FuzzerConfig {
    /// Master seed; all per-iteration seeds derive from it.
    pub seed: u64,
    /// Run the native-side oracles on retention candidates (and on
    /// seeds). Disable for checker/sim-only loops.
    pub full_oracles: bool,
    /// Serve-mode: additionally interleave each retained child with its
    /// parent as two tenants of a [`StreamService`](stream_serve) and
    /// assert isolation ([`crate::serve::serve_case`]). Serve findings
    /// are recorded unshrunk — the *pair* is the reproducer.
    pub serve_oracle: bool,
}

/// One retained corpus input and its retention pedigree.
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    /// Position in the corpus (stable id).
    pub id: usize,
    /// Seed label (for seeds) or `m<exec#>` (for mutants).
    pub label: String,
    /// Per-entry seed from which children's mutation seeds derive.
    pub seed: u64,
    /// Mutation operator that produced this entry (`seed` for seeds).
    pub op: &'static str,
    /// Parent corpus id, if mutated from one.
    pub parent: Option<usize>,
    /// The genome.
    pub spec: ProgramSpec,
    /// Signals this entry was first to produce.
    pub new_signals: Vec<String>,
}

/// A shrunk, reproducible oracle disagreement.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Stable disagreement class (see [`crate::harness::Disagreement`]).
    pub class: String,
    /// Human-readable detail from the (pre-shrink) disagreement.
    pub detail: String,
    /// Operator that produced the disagreeing child.
    pub op: String,
    /// The minimal reproducer.
    pub spec: ProgramSpec,
    /// The reproducer's serialized genome ([`ProgramSpec::to_text`]).
    pub text: String,
}

/// The coverage-guided differential fuzzer.
pub struct Fuzzer {
    /// The harness (public so callers can replay findings on it).
    pub harness: Harness,
    cfg: FuzzerConfig,
    corpus: Vec<CorpusEntry>,
    seen: BTreeSet<String>,
    findings: Vec<Finding>,
    log: Vec<String>,
    execs: u64,
}

impl Fuzzer {
    /// Fresh fuzzer; seed the corpus with [`add_seed`](Self::add_seed)
    /// before [`run`](Self::run).
    pub fn new(cfg: FuzzerConfig) -> Fuzzer {
        Fuzzer {
            harness: Harness::new(),
            cfg,
            corpus: Vec::new(),
            seen: BTreeSet::new(),
            findings: Vec::new(),
            log: Vec::new(),
            execs: 0,
        }
    }

    /// Add a seed genome. Seeds are always retained (repaired first), run
    /// through the full oracle stack, and credited with every signal they
    /// are first to produce.
    pub fn add_seed(&mut self, label: &str, spec: ProgramSpec) {
        let mut spec = spec;
        spec.repair();
        let out = self.harness.run_case(&spec, self.cfg.full_oracles);
        self.execs += 1;
        let new_signals: Vec<String> = out.signals.difference(&self.seen).cloned().collect();
        self.seen.extend(out.signals.iter().cloned());
        if let Some(d) = out.disagreement {
            self.record_finding(&d.class, &d.detail, "seed", &spec);
        }
        let id = self.corpus.len();
        self.log.push(format!(
            "seed {label}: +{} signals ({} total)",
            new_signals.len(),
            self.seen.len()
        ));
        self.corpus.push(CorpusEntry {
            id,
            label: label.to_string(),
            seed: splitmix64(self.cfg.seed ^ fnv64(label)),
            op: "seed",
            parent: None,
            spec,
            new_signals,
        });
    }

    /// Run `budget` mutation executions (not wall-clock bounded — the
    /// budget *is* the determinism boundary). Panics if the corpus is
    /// empty.
    pub fn run(&mut self, budget: usize) {
        assert!(!self.corpus.is_empty(), "seed the corpus before running");
        for _ in 0..budget {
            let tick = self.execs;
            let parent_idx = (splitmix64(self.cfg.seed ^ tick) as usize) % self.corpus.len();
            let mutation_seed = splitmix64(self.corpus[parent_idx].seed ^ splitmix64(tick));
            let (child, op) = mutate(&self.corpus[parent_idx].spec, mutation_seed);

            let cheap = self.harness.run_case(&child, false);
            self.execs += 1;
            let mut novel: BTreeSet<String> =
                cheap.signals.difference(&self.seen).cloned().collect();
            let mut disagreement = cheap.disagreement.clone();

            if !novel.is_empty() || disagreement.is_some() {
                // Graduate: full differential pass before retention.
                let out = if self.cfg.full_oracles {
                    let out = self.harness.run_case(&child, true);
                    self.execs += 1;
                    out
                } else {
                    cheap
                };
                novel.extend(out.signals.difference(&self.seen).cloned());
                if disagreement.is_none() {
                    disagreement = out.disagreement;
                }
                if self.cfg.serve_oracle && disagreement.is_none() {
                    let serve = crate::serve::serve_case(&child, &self.corpus[parent_idx].spec);
                    self.execs += 1;
                    novel.extend(serve.signals.difference(&self.seen).cloned());
                    if let Some(d) = serve.disagreement {
                        self.log.push(format!(
                            "SERVE DISAGREEMENT m{tick}: {} — {}",
                            d.class, d.detail
                        ));
                        // Unshrunk: the (child, parent) pair reproduces it.
                        self.findings.push(Finding {
                            class: d.class,
                            detail: d.detail,
                            op: op.to_string(),
                            text: child.to_text(),
                            spec: child.clone(),
                        });
                    }
                }
                self.seen.extend(novel.iter().cloned());
                let id = self.corpus.len();
                let new_signals: Vec<String> = novel.into_iter().collect();
                self.log.push(format!(
                    "m{tick}: {op} on #{parent_idx} +{} signals ({} total)",
                    new_signals.len(),
                    self.seen.len()
                ));
                self.corpus.push(CorpusEntry {
                    id,
                    label: format!("m{tick}"),
                    seed: mutation_seed,
                    op,
                    parent: Some(parent_idx),
                    spec: child.clone(),
                    new_signals,
                });
            }

            if let Some(d) = disagreement {
                self.log
                    .push(format!("DISAGREEMENT m{tick}: {} — {}", d.class, d.detail));
                self.record_finding(&d.class, &d.detail, op, &child);
            }
        }
    }

    fn record_finding(&mut self, class: &str, detail: &str, op: &str, spec: &ProgramSpec) {
        let minimal = shrink(&mut self.harness, spec, class, self.cfg.full_oracles);
        self.findings.push(Finding {
            class: class.to_string(),
            detail: detail.to_string(),
            op: op.to_string(),
            text: minimal.to_text(),
            spec: minimal,
        });
    }

    /// Executions performed (cheap and full passes both count).
    pub fn execs(&self) -> u64 {
        self.execs
    }

    /// The retained corpus, in retention order.
    pub fn corpus(&self) -> &[CorpusEntry] {
        &self.corpus
    }

    /// All distinct signals seen so far.
    pub fn seen_signals(&self) -> &BTreeSet<String> {
        &self.seen
    }

    /// Signal counts per family — the fuzzing sessions' breadth check.
    pub fn families(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for s in &self.seen {
            *out.entry(family(s).to_string()).or_insert(0) += 1;
        }
        out
    }

    /// Shrunk disagreements found so far.
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// The narrative log: seeds, retentions, disagreements.
    pub fn log(&self) -> &[String] {
        &self.log
    }

    /// Fold the entire observable state — every retained entry's label,
    /// operator, parent, serialized genome and novel signals, plus every
    /// finding — into one hash. Two runs with identical config, seeds and
    /// budget must produce identical hashes; `tests/fuzz_regressions.rs`
    /// enforces this.
    pub fn evolution_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |s: &str| {
            h ^= fnv64(s);
            h = splitmix64(h);
        };
        for e in &self.corpus {
            eat(&e.label);
            eat(e.op);
            eat(&format!("{:?}", e.parent));
            eat(&e.spec.to_text());
            for s in &e.new_signals {
                eat(s);
            }
        }
        for f in &self.findings {
            eat(&f.class);
            eat(&f.text);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hstreams::sched::SchedulerKind;
    use hstreams::testutil::{build_chained, build_synced};

    fn seeded(budget: usize) -> Fuzzer {
        let cfg = FuzzerConfig {
            seed: 99,
            full_oracles: false, // keep unit tests fast; integration covers full
            serve_oracle: false,
        };
        let mut f = Fuzzer::new(cfg);
        f.add_seed("minimal", ProgramSpec::minimal());
        f.add_seed(
            "synced3",
            ProgramSpec::from_program(
                &build_synced(3, &[(0, 0), (1, 1), (2, 0)]),
                SchedulerKind::Fifo,
            ),
        );
        f.add_seed(
            "chained",
            ProgramSpec::from_program(
                &build_chained(&[2, 1], &[(0, 0)], 2, 12),
                SchedulerKind::ListHeft,
            ),
        );
        f.run(budget);
        f
    }

    #[test]
    fn corpus_evolution_is_deterministic() {
        let a = seeded(60);
        let b = seeded(60);
        assert_eq!(a.evolution_hash(), b.evolution_hash());
        assert_eq!(a.corpus().len(), b.corpus().len());
        assert_eq!(a.seen_signals(), b.seen_signals());
        assert_eq!(a.log(), b.log());
    }

    #[test]
    fn fuzzing_discovers_multiple_signal_families() {
        let f = seeded(120);
        let families = f.families();
        assert!(
            families.len() >= 4,
            "expected ≥4 signal families, got {families:?}"
        );
        assert!(
            f.corpus().len() > 3,
            "mutation should retain novel inputs beyond the seeds"
        );
    }

    #[test]
    fn oracles_agree_on_everything_the_loop_generates() {
        let f = seeded(120);
        assert!(
            f.findings().is_empty(),
            "cheap-oracle disagreements found: {:?}",
            f.findings()
                .iter()
                .map(|x| (&x.class, &x.detail))
                .collect::<Vec<_>>()
        );
    }
}
