//! Sync elision: HB transitive reduction with an equivalence certificate.
//!
//! Three passes run to a joint fixpoint, each provably closure-preserving
//! over payload actions:
//!
//! 1. **Redundant waits.** A `WaitEvent` is an edge `record → wait` in the
//!    HB graph; it is redundant exactly when `record` still reaches `wait`
//!    with that one edge filtered out. Removing a transitively-implied
//!    edge leaves the closure untouched, so this is the classical
//!    transitive reduction, applied one wait at a time (two waits can be
//!    mutually redundant — removing both would lose an edge, so the scan
//!    restarts after every removal).
//! 2. **Dead records.** A `RecordEvent` nobody waits on (possibly because
//!    pass 1 just removed its last waiter) orders nothing; removing it
//!    bridges its FIFO neighbors and leaves the payload closure intact.
//! 3. **Implied barriers.** A barrier is removed when a trial program
//!    without it still analyzes clean and has the *same* payload closure —
//!    the all-to-all ordering it enforced was already implied by event
//!    edges (or by another barrier, which collapses adjacent barriers).
//!
//! The passes only ever delete control actions, so the payload of every
//! stream is untouched by construction; [`certify`] re-derives that plus
//! closure equality from the two programs alone, making the certificate
//! independent of the transformation that produced it.

use std::time::Instant;

use crate::action::Action;
use crate::check::{analyze, CheckEnv, Site};
use crate::check::{HbEdges, HbGraph};
use crate::program::Program;
use crate::types::{EventId, StreamId};

use super::is_payload;

/// Machine-checkable evidence that an optimized program is equivalent to
/// the original it was derived from. Produced by [`optimize`]; can be
/// re-derived from the two programs with [`certify`].
#[derive(Clone, Debug)]
pub struct Certificate {
    /// The input analyzed clean (elision only runs on clean programs).
    pub original_clean: bool,
    /// The output re-analyzes clean under the same environment.
    pub optimized_clean: bool,
    /// Every stream's payload action sequence (labels + buffer sets, in
    /// order) is byte-for-byte the one it started with.
    pub payload_preserved: bool,
    /// Ordered payload pairs whose happens-before orientation was
    /// compared between the two programs.
    pub payload_pairs: usize,
    /// The happens-before closure over payload actions is identical —
    /// which subsumes the conflicting pairs below.
    pub closure_preserved: bool,
    /// Conflicting pairs (same buffer, same memory space, at least one
    /// write) explicitly re-checked pair-by-pair.
    pub conflict_pairs: usize,
    /// Every conflicting pair kept its orientation.
    pub conflicts_preserved: bool,
}

impl Certificate {
    /// True when every obligation checked out.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.original_clean
            && self.optimized_clean
            && self.payload_preserved
            && self.closure_preserved
            && self.conflicts_preserved
    }
}

/// What one [`optimize`] run did, in the *original* program's coordinates.
#[derive(Clone, Debug, Default)]
pub struct OptReport {
    /// The input did not analyze clean (or was empty): elision refused to
    /// touch it and the output is an untouched clone.
    pub skipped: bool,
    /// Defensive fallback: the certificate failed to verify, so the
    /// transformation was discarded and the output is the original.
    pub reverted: bool,
    /// Elided `WaitEvent` sites.
    pub elided_waits: Vec<Site>,
    /// Removed dead `RecordEvent` sites.
    pub elided_records: Vec<Site>,
    /// Barrier ids removed (each removal deletes one action per stream).
    pub elided_barriers: usize,
    /// The equivalence evidence, absent when `skipped`.
    pub certificate: Option<Certificate>,
    /// Analyzer + optimizer wall time, microseconds.
    pub elapsed_us: u64,
    /// `site_map[stream][original index]` = index in the optimized
    /// program, `None` for elided actions.
    site_map: Vec<Vec<Option<usize>>>,
}

impl OptReport {
    /// Total actions removed from the program.
    #[must_use]
    pub fn elided_actions(&self) -> usize {
        self.site_map
            .iter()
            .flatten()
            .filter(|m| m.is_none())
            .count()
    }

    /// Translate an original-coordinates site into the optimized program;
    /// `None` when the action was elided or the site is out of range.
    #[must_use]
    pub fn map_site(&self, site: Site) -> Option<Site> {
        let idx = (*self.site_map.get(site.stream.0)?.get(site.action_index)?)?;
        Some(Site::new(site.stream.0, idx))
    }
}

/// An optimized program together with the report describing how it was
/// derived.
#[derive(Clone, Debug)]
pub struct Optimized {
    /// The (possibly) transformed program.
    pub program: Program,
    /// What was elided, and the equivalence certificate.
    pub report: OptReport,
}

/// Per-stream map from current action indices back to original ones,
/// maintained across removals so the final report speaks original
/// coordinates.
struct Edits {
    cur_to_orig: Vec<Vec<usize>>,
    orig_len: Vec<usize>,
}

impl Edits {
    fn new(p: &Program) -> Edits {
        Edits {
            cur_to_orig: p
                .streams
                .iter()
                .map(|s| (0..s.actions.len()).collect())
                .collect(),
            orig_len: p.streams.iter().map(|s| s.actions.len()).collect(),
        }
    }

    /// Record the removal of the action currently at `(si, ai)`, returning
    /// its original site.
    fn removed(&mut self, si: usize, ai: usize) -> Site {
        Site::new(si, self.cur_to_orig[si].remove(ai))
    }

    fn site_map(&self) -> Vec<Vec<Option<usize>>> {
        self.orig_len
            .iter()
            .zip(&self.cur_to_orig)
            .map(|(&n, kept)| {
                let mut m = vec![None; n];
                for (cur, &orig) in kept.iter().enumerate() {
                    m[orig] = Some(cur);
                }
                m
            })
            .collect()
    }
}

/// Run sync elision on `program`. Non-clean (or empty) programs come back
/// untouched with [`OptReport::skipped`] set — the optimizer never papers
/// over a program the analyzer would refuse. If the certificate somehow
/// fails to verify, the transformation is discarded
/// ([`OptReport::reverted`]) rather than shipped unproven.
#[must_use]
pub fn optimize(program: &Program, env: &CheckEnv) -> Optimized {
    let t0 = Instant::now();
    let original = analyze(program, env);
    let elapsed_us = |t: Instant| u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX);
    // Untouched outputs still carry an identity site map, so `map_site`
    // is total: callers translating coordinates (e.g. fault injection
    // sites) need not care whether elision actually ran.
    let identity = || Edits::new(program).site_map();
    if !original.report.is_clean() || program.streams.is_empty() {
        return Optimized {
            program: program.clone(),
            report: OptReport {
                skipped: true,
                elapsed_us: elapsed_us(t0),
                site_map: identity(),
                ..OptReport::default()
            },
        };
    }

    let base_closure = payload_closure(program).expect("clean program is acyclic");
    let mut cur = program.clone();
    let mut edits = Edits::new(program);
    let mut elided_waits = Vec::new();
    let mut elided_records = Vec::new();
    let mut elided_barriers = 0usize;

    // Pass 1: transitive reduction over event edges, one wait at a time.
    while let Some((si, ai)) = find_redundant_wait(&cur) {
        cur.remove_action(StreamId(si), ai);
        elided_waits.push(edits.removed(si, ai));
    }

    // Pass 2: records with no remaining waiters.
    while let Some(e) = find_dead_record(&cur) {
        let site = cur.events[e.0];
        let (si, ai) = (site.stream.0, site.action_index);
        cur.remove_event(e);
        elided_records.push(edits.removed(si, ai));
    }

    // Pass 3: barriers whose all-to-all ordering is already implied.
    // Removing one can make its neighbor removable, so scan to fixpoint.
    'barriers: loop {
        for n in 0..cur.barriers {
            let mut trial = cur.clone();
            let removed = remove_barrier(&mut trial, n);
            let trial_ok = analyze(&trial, env).report.is_clean()
                && payload_closure(&trial).as_ref() == Some(&base_closure);
            if trial_ok {
                let removed_now = remove_barrier(&mut cur, n);
                debug_assert_eq!(removed, removed_now);
                for &(si, ai) in removed_now.iter().rev() {
                    // Reverse order keeps earlier indices valid... they are
                    // in distinct streams, so order is immaterial; reverse
                    // only for symmetry with the collection order.
                    edits.removed(si, ai);
                }
                elided_barriers += 1;
                continue 'barriers;
            }
        }
        break;
    }

    let certificate = certify(program, &cur, env);
    if !certificate.holds() {
        return Optimized {
            program: program.clone(),
            report: OptReport {
                reverted: true,
                certificate: Some(certificate),
                elapsed_us: elapsed_us(t0),
                site_map: identity(),
                ..OptReport::default()
            },
        };
    }
    Optimized {
        program: cur,
        report: OptReport {
            skipped: false,
            reverted: false,
            elided_waits,
            elided_records,
            elided_barriers,
            certificate: Some(certificate),
            elapsed_us: elapsed_us(t0),
            site_map: edits.site_map(),
        },
    }
}

/// Check the equivalence obligations between `original` and `optimized`
/// under `env`, independent of how `optimized` was produced.
#[must_use]
pub fn certify(original: &Program, optimized: &Program, env: &CheckEnv) -> Certificate {
    let a_orig = analyze(original, env);
    let a_opt = analyze(optimized, env);
    let original_clean = a_orig.report.is_clean();
    let optimized_clean = a_opt.report.is_clean();

    let payload_preserved = original.streams.len() == optimized.streams.len()
        && original
            .streams
            .iter()
            .zip(&optimized.streams)
            .all(|(so, sn)| {
                so.placement == sn.placement
                    && payload_keys(&so.actions).eq(payload_keys(&sn.actions))
            });

    let co = payload_closure(original);
    let cn = payload_closure(optimized);
    let payload_pairs = co.as_ref().map_or(0, |c| c.matrix.len());
    let closure_preserved = match (&co, &cn) {
        (Some(a), Some(b)) => a == b,
        _ => false,
    };

    // Explicit conflicting-pair re-check: every pair of accesses to the
    // same (buffer, space) with at least one write must keep its
    // orientation. Identified by payload ordinal, which control-only edits
    // cannot shift.
    let (mut conflict_pairs, mut conflicts_preserved) = (0usize, true);
    if payload_preserved {
        let ord_orig = payload_ordinals(original);
        let by_ordinal: Vec<Vec<usize>> = payload_sites(optimized);
        for accesses in a_orig.accesses.groups() {
            for (i, a) in accesses.iter().enumerate() {
                for b in &accesses[i + 1..] {
                    if !a.write && !b.write {
                        continue;
                    }
                    conflict_pairs += 1;
                    let (sa, sb) = (a.site, b.site);
                    let oa = ord_orig[sa.stream.0][sa.action_index];
                    let ob = ord_orig[sb.stream.0][sb.action_index];
                    let na = Site::new(sa.stream.0, by_ordinal[sa.stream.0][oa]);
                    let nb = Site::new(sb.stream.0, by_ordinal[sb.stream.0][ob]);
                    let before = (a_orig.happens_before(sa, sb), a_orig.happens_before(sb, sa));
                    let after = (a_opt.happens_before(na, nb), a_opt.happens_before(nb, na));
                    if before != after {
                        conflicts_preserved = false;
                    }
                }
            }
        }
    } else {
        conflicts_preserved = false;
    }

    Certificate {
        original_clean,
        optimized_clean,
        payload_preserved,
        payload_pairs,
        closure_preserved,
        conflict_pairs,
        conflicts_preserved,
    }
}

/// The comparable identity of a stream's payload actions, in order.
fn payload_keys(
    actions: &[Action],
) -> impl Iterator<Item = (String, Vec<crate::types::BufId>)> + '_ {
    actions
        .iter()
        .filter(|a| is_payload(a))
        .map(|a| (a.label(), a.buffers().collect()))
}

/// `ordinals[stream][action index]` = payload ordinal within the stream
/// (meaningless for control actions).
fn payload_ordinals(p: &Program) -> Vec<Vec<usize>> {
    p.streams
        .iter()
        .map(|s| {
            let mut next = 0usize;
            s.actions
                .iter()
                .map(|a| {
                    let o = next;
                    if is_payload(a) {
                        next += 1;
                    }
                    o
                })
                .collect()
        })
        .collect()
}

/// `sites[stream][payload ordinal]` = action index.
fn payload_sites(p: &Program) -> Vec<Vec<usize>> {
    p.streams
        .iter()
        .map(|s| {
            s.actions
                .iter()
                .enumerate()
                .filter(|(_, a)| is_payload(a))
                .map(|(i, _)| i)
                .collect()
        })
        .collect()
}

/// Happens-before closure restricted to payload actions. The matrix is
/// indexed by global payload ordinal pairs; `None` for cyclic graphs.
#[derive(PartialEq)]
struct PayloadClosure {
    /// Payload count per stream, to guard against shape drift.
    shape: Vec<usize>,
    matrix: Vec<bool>,
}

fn payload_closure(p: &Program) -> Option<PayloadClosure> {
    let hb = HbGraph::build(p);
    if hb.cycle().is_some() {
        return None;
    }
    let sites: Vec<Site> = p
        .streams
        .iter()
        .enumerate()
        .flat_map(|(si, s)| {
            s.actions
                .iter()
                .enumerate()
                .filter(|(_, a)| is_payload(a))
                .map(move |(ai, _)| Site::new(si, ai))
        })
        .collect();
    let n = sites.len();
    let mut matrix = vec![false; n * n];
    for (i, &a) in sites.iter().enumerate() {
        for (j, &b) in sites.iter().enumerate() {
            if i != j {
                matrix[i * n + j] = hb.happens_before(a, b);
            }
        }
    }
    Some(PayloadClosure {
        shape: payload_sites(p).iter().map(Vec::len).collect(),
        matrix,
    })
}

/// First wait (in stream, then program order) whose record still reaches
/// it with the direct event edge filtered out.
fn find_redundant_wait(p: &Program) -> Option<(usize, usize)> {
    let edges = HbEdges::build(p);
    for (si, s) in p.streams.iter().enumerate() {
        for (ai, a) in s.actions.iter().enumerate() {
            if let Action::WaitEvent(e) = a {
                let Some(site) = p.events.get(e.0) else {
                    continue;
                };
                let vr = edges.offsets[site.stream.0] + site.action_index;
                let vw = edges.offsets[si] + ai;
                if reaches_without_direct_edge(&edges, vr, vw) {
                    return Some((si, ai));
                }
            }
        }
    }
    None
}

/// Reverse reachability `vr →* vw` skipping the direct edge `vr → vw`.
/// The direct edge is the event edge; the FIFO predecessor is same-stream
/// and `validate()` forbids self-waits, so filtering `vr` from `vw`'s
/// predecessor list removes exactly that one edge.
fn reaches_without_direct_edge(edges: &HbEdges, vr: usize, vw: usize) -> bool {
    let mut seen = vec![false; edges.nodes];
    let mut stack: Vec<usize> = edges
        .preds(vw)
        .iter()
        .map(|&x| x as usize)
        .filter(|&x| x != vr)
        .collect();
    while let Some(v) = stack.pop() {
        if v == vr {
            return true;
        }
        if !seen[v] {
            seen[v] = true;
            stack.extend(edges.preds(v).iter().map(|&x| x as usize));
        }
    }
    false
}

/// First event no stream waits on.
fn find_dead_record(p: &Program) -> Option<EventId> {
    let mut waited = vec![false; p.events.len()];
    for s in &p.streams {
        for a in &s.actions {
            if let Action::WaitEvent(e) = a {
                if let Some(w) = waited.get_mut(e.0) {
                    *w = true;
                }
            }
        }
    }
    waited.iter().position(|&w| !w).map(EventId)
}

/// Remove barrier `n` from every stream, renumber the rest, and return
/// the removed `(stream, action index)` sites in stream order.
fn remove_barrier(p: &mut Program, n: usize) -> Vec<(usize, usize)> {
    let mut removed = Vec::new();
    for si in 0..p.streams.len() {
        if let Some(ai) = p.streams[si]
            .actions
            .iter()
            .position(|a| matches!(a, Action::Barrier(m) if *m == n))
        {
            p.remove_action(StreamId(si), ai);
            removed.push((si, ai));
        }
    }
    for s in &mut p.streams {
        for a in &mut s.actions {
            if let Action::Barrier(m) = a {
                if *m > n {
                    *m -= 1;
                }
            }
        }
    }
    p.barriers -= 1;
    removed
}
