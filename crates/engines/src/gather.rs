//! The four pieces behind the engines' host work: [`RunGather`], the
//! run-sum gather of every synchronous distributed PageRank, [`MinLabel`],
//! the HashMin step of every non-BSP WCC, [`expand`], the BFS step of every
//! non-BSP SSSP and K-hop, and [`Rounds`], which owns one dataflow run's
//! per-vertex state and steps it through the other three. Only the gather
//! runs across host threads; the other kernels are serial scans.
//!
//! GraphLab's sync gather, GraphX's join, the Hadoop/HaLoop reduce,
//! Vertica's `SUM` and the BSP combiners (Giraph, Blogel-V, Blogel-B's
//! vertex phase, Gelly) fold a destination's contributions in *runs*: one
//! run per machine (GraphLab, GraphX, BSP) or per source chunk (MapReduce,
//! SQL) that sends the destination anything, each folded from `+0.0` in
//! that part's order, and the run totals added in part order. [`RunGather`]
//! stores every destination's sources in exactly that order, built once per
//! run (the graph is loop-invariant), and reproduces the two-level fold bit
//! for bit in two passes per destination window: every run's total, folded
//! left to right, then each destination's totals added in part order. The
//! build groups a window's runs by length, so the first pass runs one
//! constant-trip-count loop per class and the adds of different runs
//! overlap, instead of one dependent add chain per destination.
//!
//! The seed's sign is unobservable (BSP's combiners fold from `-0.0`):
//! contributions are non-negative, so no sum is `-0.0`, and a part that
//! sends a destination nothing would add an exact `+0.0` and has no run.
//!
//! Integer min is order-free, so the WCC labels need no runs at all:
//! [`MinLabel`] takes each vertex's minimum over its out-list and a sorted
//! in-index in one pass over the vertices. The one order-dependent figure,
//! Vertica's `updated` row count, is a running-min count per source chunk
//! that a second pass reads off in source order, for the vertices whose
//! label shrank only: every other vertex counts zero.
//!
//! A unit-weight traversal is level-synchronous whichever paradigm runs
//! it: MapReduce relaxes every edge, GraphX tests every edge's source
//! flag, Vertica joins an ACTIVE table and GraphLab scatters from the
//! frontier, but each round reaches exactly the unvisited out-neighbours
//! of the previous wave. [`expand`] computes that wave once for all four,
//! in frontier-scan order; what each paradigm pays for it stays in its
//! engine's charges.
//!
//! Hadoop/HaLoop, Vertica and GraphX run all four workloads through one
//! loop each, and GraphLab its WCC and traversal; they differ only in what a
//! round costs: HDFS passes, SQL joins, RDD stages or vertex-cut mirror
//! syncs. [`Rounds`] is what the loop steps: the ranks, labels or distances,
//! the last round's changed vertices, the stop test, and a saved copy of the
//! state for GraphX's lineage replay. The pricing stays in the engine.
//! GraphLab keeps its own PageRank loops: its degrees exclude self-edges,
//! its approximate mode masks the gather, and its async mode has no rounds.

use crate::exec;
use graphbench_algos::workload::StopCriterion;
use graphbench_algos::{Workload, WorkloadResult, UNREACHABLE};
use graphbench_graph::csr::InIndex;
use graphbench_graph::{CsrGraph, VertexId};
use std::ops::Range;

/// Top bit of a staged source id: the source closes its run.
const LAST: u32 = 1 << 31;

/// Runs of up to this many sources are classed by length; a longer run is
/// a class of its own (or shares one with the equally long runs beside it).
const SHORT: usize = 8;

pub(crate) struct RunGather {
    /// Destination `t`'s run totals are `tot[runs[t]..runs[t + 1]]`, in
    /// part order.
    runs: Vec<u32>,
    /// Every source once, window by window. Inside a window the runs are
    /// grouped by class (length 1, 2, …, [`SHORT`], then the longer ones),
    /// in destination order within a class, each run in its part's edge
    /// order.
    src: Vec<u32>,
    /// Parallel to the stored runs: the run's total's index in `tot`,
    /// relative to its window's first run.
    slot: Vec<u32>,
    /// `(run length, runs)` per class, window by window.
    classes: Vec<(u32, u32)>,
    /// Destination windows weighted by `1 + in-degree`, so one hub cannot
    /// serialize a whole chunk.
    plan: Vec<Window>,
    /// Pooled per-iteration `rank / out-degree`, one division per source
    /// rather than one per edge: the same IEEE quotient either way.
    contrib: Vec<f64>,
    /// Pooled run totals, indexed like `runs`.
    tot: Vec<f64>,
}

/// One task of [`RunGather::gather`]: destinations `dst`, whose sources
/// start at `src[first_src]` and whose classes are `classes[class_range]`.
struct Window {
    dst: Range<usize>,
    first_src: usize,
    class_range: Range<usize>,
}

impl RunGather {
    /// `part(p)` yields part `p`'s edges `(src, dst)` in its fold order, for
    /// `p` in `0..parts`; destination `t`'s run from part `p` is its edges
    /// there. It is called three times per part (count, place, flag).
    pub(crate) fn build<I>(n: usize, parts: usize, part: impl Fn(usize) -> I) -> RunGather
    where
        I: Iterator<Item = (VertexId, VertexId)>,
    {
        assert!(n < LAST as usize, "the run-sum gather stores ids below 2^31, got {n} vertices");
        // Stage every destination's sources in fold order, the last source
        // of each run flagged.
        let mut off = vec![0u32; n + 1];
        for p in 0..parts {
            for (_, t) in part(p) {
                off[t as usize + 1] += 1;
            }
        }
        for v in 0..n {
            off[v + 1] += off[v];
        }
        let mut cursor: Vec<u32> = off[..n].to_vec();
        let mut src = vec![0u32; off[n] as usize];
        for p in 0..parts {
            for (s, t) in part(p) {
                src[cursor[t as usize] as usize] = s;
                cursor[t as usize] += 1;
            }
            // The part's last edge into each destination closes its run.
            for (_, t) in part(p) {
                src[cursor[t as usize] as usize - 1] |= LAST;
            }
        }
        drop(cursor);
        // Run lengths in destination order: every run's end, written
        // branch-free, then differenced.
        let mut runs = vec![0u32; n + 1];
        let mut len = vec![0u32; src.len() + 1];
        let mut r = 0usize;
        for t in 0..n {
            for i in off[t]..off[t + 1] {
                len[r] = i + 1;
                r += (src[i as usize] >> 31) as usize;
            }
            runs[t + 1] = r as u32;
        }
        len.truncate(r);
        for r in (1..len.len()).rev() {
            len[r] -= len[r - 1];
        }
        let weights: Vec<u64> = off.windows(2).map(|w| 1 + u64::from(w[1] - w[0])).collect();
        let spans = exec::weighted_spans(&weights, exec::chunk_size());
        // Group each window's runs by class in place: a stable counting
        // sort of the runs, carrying their sources along.
        let class_of = |l: u32| (l as usize).min(SHORT + 1) - 1;
        let (mut slot, mut classes) = (vec![0u32; len.len()], Vec::new());
        let mut plan = Vec::with_capacity(spans.len());
        let mut staged: Vec<u32> = Vec::new();
        for (lo, hi) in spans {
            let (e0, e1) = (off[lo] as usize, off[hi] as usize);
            let (r0, r1) = (runs[lo] as usize, runs[hi] as usize);
            let lens = &len[r0..r1];
            // Each class's first run and first source, window-relative.
            let (mut run_at, mut src_at) = ([0usize; SHORT + 2], [0usize; SHORT + 2]);
            for &l in lens {
                run_at[class_of(l) + 1] += 1;
                src_at[class_of(l) + 1] += l as usize;
            }
            for c in 0..=SHORT {
                run_at[c + 1] += run_at[c];
                src_at[c + 1] += src_at[c];
            }
            staged.clear();
            staged.extend(src[e0..e1].iter().map(|&s| s & !LAST));
            let mut at = 0;
            for (k, &l) in lens.iter().enumerate() {
                let (c, l) = (class_of(l), l as usize);
                src[e0 + src_at[c]..e0 + src_at[c] + l].copy_from_slice(&staged[at..at + l]);
                slot[r0 + run_at[c]] = k as u32;
                (src_at[c], run_at[c], at) = (src_at[c] + l, run_at[c] + 1, at + l);
            }
            // Classes are the stored order's runs of equal length.
            let first_class = classes.len();
            for &k in &slot[r0..r1] {
                let l = lens[k as usize];
                match classes[first_class..].last_mut() {
                    Some((last, count)) if *last == l => *count += 1,
                    _ => classes.push((l, 1)),
                }
            }
            plan.push(Window {
                dst: lo..hi,
                first_src: e0,
                class_range: first_class..classes.len(),
            });
        }
        let tot = vec![0.0; len.len()];
        RunGather { runs, src, slot, classes, plan, contrib: vec![0.0; n], tot }
    }

    /// `incoming[t]` = the run sum of `ranks[s] / deg(s)` over `t`'s sources
    /// `s`, chunked over the destination windows; bit-identical at any
    /// chunk × thread combination because each destination folds whole
    /// inside one task. With an `active` mask, inactive destinations get
    /// `0.0`.
    ///
    /// Each window's task takes two passes. The first folds every run from
    /// `+0.0` left to right, class by class, so the trip count of the inner
    /// loop is constant across a class and the loop predicts well. The
    /// second adds each destination's run totals in part order from `+0.0`.
    /// Runs are independent, so the adds of different runs overlap instead
    /// of queueing on one dependent chain per destination.
    pub(crate) fn gather(
        &mut self,
        ranks: &[f64],
        deg: impl Fn(usize) -> u64,
        active: Option<&[bool]>,
        incoming: &mut [f64],
    ) {
        // A vertex without out-edges is nobody's source; its quotient is unread.
        for (u, (c, r)) in self.contrib.iter_mut().zip(ranks).enumerate() {
            *c = r / deg(u) as f64;
        }
        let RunGather { runs, src, slot, classes, plan, contrib, tot } = self;
        let mut tasks = Vec::with_capacity(plan.len());
        let (mut out, mut tot) = (&mut incoming[..], &mut tot[..]);
        for w in plan.iter() {
            let (window, rest) = out.split_at_mut(w.dst.len());
            let (totals, tail) = tot.split_at_mut((runs[w.dst.end] - runs[w.dst.start]) as usize);
            tasks.push((w, window, totals));
            (out, tot) = (rest, tail);
        }
        let (runs, src, slot, classes, contrib) =
            (&runs[..], &src[..], &slot[..], &classes[..], &contrib[..]);
        exec::run_chunks(&mut tasks, |_, (w, window, totals)| {
            let r0 = runs[w.dst.start];
            let (mut at, mut k) = (w.first_src, r0 as usize);
            for &(len, count) in &classes[w.class_range.clone()] {
                let (len, count) = (len as usize, count as usize);
                let sources = &src[at..at + len * count];
                for (run, &i) in sources.chunks_exact(len).zip(&slot[k..k + count]) {
                    totals[i as usize] = run.iter().fold(0.0, |a, &s| a + contrib[s as usize]);
                }
                (at, k) = (at + len * count, k + count);
            }
            for (t, acc) in w.dst.clone().zip(window.iter_mut()) {
                *acc = if active.is_some_and(|a| !a[t]) {
                    0.0
                } else {
                    let own = &totals[(runs[t] - r0) as usize..(runs[t + 1] - r0) as usize];
                    own.iter().fold(0.0, |a, &x| a + x)
                };
            }
        });
    }
}

/// Source chunk `c` of `parts` over `0..n`: `[c·n/parts, (c+1)·n/parts)`,
/// the share of the vertex range one MapReduce mapper or one Vertica
/// segment scans. Boundaries depend only on the simulated machine count,
/// never on the host thread count.
pub(crate) fn source_chunk(c: usize, parts: usize, n: usize) -> Range<usize> {
    c * n / parts..(c + 1) * n / parts
}

/// The HashMin step of every non-BSP WCC (GraphLab, GraphX, Hadoop/HaLoop,
/// Vertica): `next[v] = min(label[v], labels of out(v) ∪ in(v))`, one pass
/// over the out-CSR and the graph's shared reverse index
/// ([`CsrGraph::in_index`]), its in-lists ascending by source.
///
/// Vertica's `updated` rows ([`MinLabel::updated`]) count the strict
/// running-min improvements per source chunk ([`source_chunk`] of `parts`):
/// its SQL scan walks each chunk's sources in ascending order and offers `v`
/// the label of every neighbour along both edge directions, each chunk
/// against its own copy of the labels. For `v`, chunk `c`'s offers are the
/// labels of `in(v) ∩ c` in source order, with the labels of `out(v)`
/// (out-list order) spliced in where the scan reaches `s = v`; the running
/// minimum starts at `label[v]`. The count is positive exactly when some
/// label shrank.
pub(crate) struct MinLabel<'g> {
    g: &'g CsrGraph,
    /// `g`'s in-neighbours, ascending.
    ins: &'g InIndex,
}

impl<'g> MinLabel<'g> {
    pub(crate) fn build(g: &'g CsrGraph) -> MinLabel<'g> {
        MinLabel { g, ins: g.in_index() }
    }

    fn ins(&self, v: usize) -> &[VertexId] {
        self.ins.neighbors(v as VertexId)
    }

    /// Fill `next`, and `improved` with the improved vertices, those with
    /// `next[v] < label[v]`, ascending.
    pub(crate) fn step(
        &self,
        label: &[VertexId],
        next: &mut [VertexId],
        improved: &mut Vec<VertexId>,
    ) {
        // Written branch-free: every vertex is stored, and only an improved
        // one advances the end.
        improved.resize(label.len(), 0);
        let mut len = 0;
        for (v, best) in next.iter_mut().enumerate() {
            let min = |b: VertexId, &u: &VertexId| b.min(label[u as usize]);
            let b = self.ins(v).iter().fold(label[v], min);
            *best = self.g.out_neighbors(v as VertexId).iter().fold(b, min);
            improved[len] = v as VertexId;
            len += usize::from(*best < label[v]);
        }
        improved.truncate(len);
    }

    /// Vertica's `updated` rows of the step from `label` over `parts` source
    /// chunks (see [`MinLabel`]): only the `improved` vertices, those whose
    /// label the step shrank, are offered their labels again.
    pub(crate) fn updated(&self, label: &[VertexId], improved: &[VertexId], parts: usize) -> u64 {
        improved.iter().map(|&v| self.improvements(v as usize, label, parts)).sum()
    }

    /// `v`'s running-min improvements over `parts` source chunks.
    fn improvements(&self, v: usize, label: &[VertexId], parts: usize) -> u64 {
        let n = label.len();
        let ins = self.ins(v);
        let split = ins.partition_point(|&s| (s as usize) < v);
        let l0 = label[v];
        let (mut run, mut end, mut imp) = (l0, 0usize, 0u64);
        let mut offer = |s: usize, x: VertexId| {
            if s >= end {
                // The first source of a new chunk: its own copy of `label`.
                run = l0;
                end = source_chunk(((s + 1) * parts - 1) / n, parts, n).end;
            }
            imp += u64::from(x < run);
            run = run.min(x);
        };
        for &s in &ins[..split] {
            offer(s as usize, label[s as usize]);
        }
        for &d in self.g.out_neighbors(v as VertexId) {
            offer(v, label[d as usize]);
        }
        for &s in &ins[split..] {
            offer(s as usize, label[s as usize]);
        }
        imp
    }
}

/// The BFS step of every non-BSP traversal (GraphLab, GraphX,
/// Hadoop/HaLoop, Vertica) over the out-CSR: expand `frontier`, whose
/// vertices sit at `depth`, in one scan. Each out-neighbour the wave has
/// not reached yet gets `depth + 1` in `dist` and joins `next`, in
/// frontier-scan order. At `depth >= bound` the wave stops there and `next`
/// is empty.
pub(crate) fn expand(
    g: &CsrGraph,
    dist: &mut [u32],
    frontier: &[VertexId],
    depth: u32,
    bound: u32,
    next: &mut Vec<VertexId>,
) {
    next.clear();
    if depth >= bound {
        return;
    }
    for &t in frontier.iter().flat_map(|&v| g.out_neighbors(v)) {
        if dist[t as usize] == UNREACHABLE {
            dist[t as usize] = depth + 1;
            next.push(t);
        }
    }
}

/// Where a K-hop run ends ([`Rounds::done`]); an SSSP run ends after its
/// first empty wave either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KHopEnd {
    /// After the `k`-th wave: one MapReduce job or SQL statement per wave.
    AtK,
    /// After the first empty wave: GraphX's Pregel loop runs while any
    /// vertex is active, so it charges one more stage, past the bound,
    /// that reaches nothing.
    EmptyWave,
}

/// One dataflow run (Hadoop/HaLoop, Vertica, GraphX; GraphLab's WCC and
/// traversal) of one workload: its per-vertex state, the kernel that steps
/// it a round, and the round count.
/// The engine prices each round around [`Rounds::step`].
pub(crate) struct Rounds<'g> {
    g: &'g CsrGraph,
    /// Rounds stepped so far.
    round: u32,
    /// The round of the last [`Rounds::save`].
    saved_round: u32,
    work: Work<'g>,
}

/// Each workload's kernel, state, scratch and saved state.
enum Work<'g> {
    PageRank {
        damping: f64,
        /// Stop once the largest rank change falls below this (0: never).
        tol: f64,
        max_rounds: u32,
        gather: RunGather,
        ranks: Vec<f64>,
        incoming: Vec<f64>,
        /// The last round's largest rank change.
        max_delta: f64,
        saved: Vec<f64>,
    },
    Wcc {
        kernel: MinLabel<'g>,
        /// GraphX's hash-to-min: each round also pointer-jumps the labels.
        hash_to_min: bool,
        label: Vec<VertexId>,
        /// The labels before the last round.
        prev: Vec<VertexId>,
        /// The vertices whose label the last round shrank, ascending.
        changed: Vec<VertexId>,
        saved: Vec<VertexId>,
    },
    Traversal {
        bound: u32,
        dist: Vec<u32>,
        /// The last round's wave, which the next round expands.
        frontier: Vec<VertexId>,
        next: Vec<VertexId>,
        saved: (Vec<u32>, Vec<VertexId>),
    },
}

impl<'g> Rounds<'g> {
    /// `workload` on `g` before its first round. `gather` builds PageRank's
    /// run-sum gather in the engine's fold order; it is called for PageRank
    /// only. `hash_to_min` adds GraphX's pointer jump to every WCC round.
    pub(crate) fn new(
        g: &'g CsrGraph,
        workload: Workload,
        hash_to_min: bool,
        gather: impl FnOnce() -> RunGather,
    ) -> Rounds<'g> {
        let n = g.num_vertices();
        let traversal = |source: VertexId, bound| {
            let mut dist = vec![UNREACHABLE; n];
            dist[source as usize] = 0;
            let saved = (Vec::new(), Vec::new());
            Work::Traversal { bound, dist, frontier: vec![source], next: Vec::new(), saved }
        };
        let work = match workload {
            Workload::PageRank(cfg) => {
                let (tol, max_rounds) = match cfg.stop {
                    StopCriterion::Tolerance(t) => (t, u32::MAX),
                    StopCriterion::Iterations(k) => (0.0, k),
                };
                Work::PageRank {
                    damping: cfg.damping,
                    tol,
                    max_rounds,
                    gather: gather(),
                    ranks: vec![1.0; n],
                    incoming: vec![0.0; n],
                    max_delta: f64::INFINITY,
                    saved: Vec::new(),
                }
            }
            Workload::Wcc => Work::Wcc {
                kernel: MinLabel::build(g),
                hash_to_min,
                label: (0..n as VertexId).collect(),
                prev: vec![0; n],
                changed: Vec::new(),
                saved: Vec::new(),
            },
            Workload::Sssp { source } => traversal(source, u32::MAX),
            Workload::KHop { source, k } => traversal(source, k),
        };
        Rounds { g, round: 0, saved_round: 0, work }
    }

    /// Rounds stepped so far.
    pub(crate) fn round(&self) -> u32 {
        self.round
    }

    /// Whether the run is over: PageRank after its iteration count or once
    /// its largest rank change fell below the tolerance, WCC after a round
    /// that shrank no label, a traversal after an empty wave or, with
    /// [`KHopEnd::AtK`], after `k` waves.
    pub(crate) fn done(&self, khop: KHopEnd) -> bool {
        match &self.work {
            Work::PageRank { tol, max_rounds, max_delta, .. } => {
                self.round >= *max_rounds || *max_delta < *tol
            }
            Work::Wcc { changed, .. } => self.round > 0 && changed.is_empty(),
            Work::Traversal { bound, frontier, .. } => {
                frontier.is_empty() || (khop == KHopEnd::AtK && self.round >= *bound)
            }
        }
    }

    /// Step one round: PageRank's gather and apply, the HashMin step (then
    /// hash-to-min's pointer jump), or the traversal's next wave.
    pub(crate) fn step(&mut self) {
        let g = self.g;
        match &mut self.work {
            Work::PageRank { damping, gather, ranks, incoming, max_delta, .. } => {
                gather.gather(ranks, |u| g.out_degree(u as VertexId), None, incoming);
                *max_delta = crate::util::pagerank_apply(ranks, incoming, *damping);
            }
            Work::Wcc { kernel, hash_to_min, label, prev, changed, .. } => {
                kernel.step(label, prev, changed);
                if *hash_to_min {
                    // Labels are vertex ids, so every vertex can also adopt
                    // its label's label, collapsing long chains in O(log d)
                    // rounds.
                    for v in 0..prev.len() {
                        let l = prev[v] as usize;
                        if prev[l] < prev[v] {
                            prev[v] = prev[l];
                        }
                    }
                    changed.clear();
                    changed.extend(
                        (0..label.len() as VertexId)
                            .filter(|&v| prev[v as usize] < label[v as usize]),
                    );
                }
                std::mem::swap(label, prev);
            }
            Work::Traversal { bound, dist, frontier, next, .. } => {
                expand(g, dist, frontier, self.round, *bound, next);
                std::mem::swap(frontier, next);
            }
        }
        self.round += 1;
    }

    /// The vertices the last round changed: WCC's shrunk labels, ascending,
    /// or a traversal's wave in scan order (before the first round: none
    /// for WCC, the source for a traversal). `None` for PageRank, where
    /// every rank moves.
    pub(crate) fn changed(&self) -> Option<&[VertexId]> {
        match &self.work {
            Work::PageRank { .. } => None,
            Work::Wcc { changed, .. } => Some(changed),
            Work::Traversal { frontier, .. } => Some(frontier),
        }
    }

    /// A traversal's distances, before the next [`Rounds::step`] applies
    /// its wave (empty for PageRank and WCC).
    pub(crate) fn dist(&self) -> &[u32] {
        match &self.work {
            Work::Traversal { dist, .. } => dist,
            _ => &[],
        }
    }

    /// Vertica's `updated` rows of the last round over `parts` source
    /// chunks: every rank, WCC's running-min improvements
    /// ([`MinLabel::updated`]), or the wave.
    pub(crate) fn updated(&self, parts: usize) -> u64 {
        match &self.work {
            Work::PageRank { ranks, .. } => ranks.len() as u64,
            Work::Wcc { kernel, prev, changed, .. } => kernel.updated(prev, changed, parts),
            Work::Traversal { frontier, .. } => frontier.len() as u64,
        }
    }

    /// Keep a copy of the state and the round count, GraphX's
    /// materialization point.
    pub(crate) fn save(&mut self) {
        self.saved_round = self.round;
        match &mut self.work {
            Work::PageRank { ranks, saved, .. } => saved.clone_from(ranks),
            Work::Wcc { label, saved, .. } => saved.clone_from(label),
            Work::Traversal { dist, frontier, saved, .. } => {
                saved.0.clone_from(dist);
                saved.1.clone_from(frontier);
            }
        }
    }

    /// Put back the state and the round count of the last [`Rounds::save`].
    /// What the last round changed is stale until the next step.
    pub(crate) fn restore(&mut self) {
        self.round = self.saved_round;
        match &mut self.work {
            Work::PageRank { ranks, saved, .. } => ranks.clone_from(saved),
            Work::Wcc { label, saved, .. } => label.clone_from(saved),
            Work::Traversal { dist, frontier, saved, .. } => {
                dist.clone_from(&saved.0);
                frontier.clone_from(&saved.1);
            }
        }
    }

    /// The ranks, labels or distances.
    pub(crate) fn into_result(self) -> WorkloadResult {
        match self.work {
            Work::PageRank { ranks, .. } => WorkloadResult::Ranks(ranks),
            Work::Wcc { label, .. } => WorkloadResult::Labels(label),
            Work::Traversal { dist, .. } => WorkloadResult::Distances(dist),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use graphbench_algos::reference;
    use graphbench_algos::workload::PageRankConfig;
    use graphbench_graph::rng::{for_each_seed, Rng};
    use graphbench_graph::{CsrGraph, EdgeList};

    /// A seeded graph with self-edges, sources without out-edges (ids
    /// divisible by 5), isolated vertices (ids ≡ 3 mod 7) and a hub
    /// destination that about three edges in eight point at.
    pub(crate) fn gather_graph(rng: &mut Rng) -> CsrGraph {
        let n = 2 + rng.below_u32(400);
        let hub = rng.below_u32(n);
        let isolated = |v: u32| v % 7 == 3 && v != hub;
        let mut el = EdgeList::with_capacity(n as u64, 0);
        for _ in 0..rng.below(6 * n as usize) {
            let s = rng.below_u32(n);
            let t = match rng.below(8) {
                0 => s,
                1..=3 => hub,
                _ => rng.below_u32(n),
            };
            if !s.is_multiple_of(5) && !isolated(s) && !isolated(t) {
                el.push(s, t);
            }
        }
        CsrGraph::from_edge_list(&el)
    }

    /// The GraphLab/GraphX fold [`RunGather`] replaces, kept as its
    /// reference: one dense zeroed partial array per machine, each active
    /// destination summed from 0.0 in that machine's edge order, then the
    /// partials added into `incoming` in machine order.
    fn dense_partials(
        n: usize,
        by_machine: &[Vec<(VertexId, VertexId)>],
        contrib: &[f64],
        active: Option<&[bool]>,
    ) -> Vec<f64> {
        let mut incoming = vec![0.0f64; n];
        for edges in by_machine {
            let mut part = vec![0.0f64; n];
            for &(s, t) in edges {
                if active.is_none_or(|a| a[t as usize]) {
                    part[t as usize] += contrib[s as usize];
                }
            }
            for (acc, p) in incoming.iter_mut().zip(&part) {
                *acc += p;
            }
        }
        incoming
    }

    /// The one-pass loop the two-pass [`RunGather::gather`] replaced, kept
    /// as its reference: every destination's sources in fold order, the
    /// last of each run flagged with [`LAST`], and one masked add chain
    /// per destination,
    /// `x = pm + contrib[s]; sum += x & last; pm = x & !last` on the bit
    /// patterns.
    fn masked_loop(
        n: usize,
        by_machine: &[Vec<(VertexId, VertexId)>],
        contrib: &[f64],
        active: Option<&[bool]>,
    ) -> Vec<f64> {
        let mut sources: Vec<Vec<u32>> = vec![Vec::new(); n];
        for edges in by_machine {
            let mut last = vec![usize::MAX; n];
            for &(s, t) in edges {
                last[t as usize] = sources[t as usize].len();
                sources[t as usize].push(s);
            }
            for (t, &i) in last.iter().enumerate() {
                if i != usize::MAX {
                    sources[t][i] |= LAST;
                }
            }
        }
        let mut incoming = vec![0.0f64; n];
        for (t, acc) in incoming.iter_mut().enumerate() {
            if active.is_some_and(|a| !a[t]) {
                continue;
            }
            let (mut sum, mut pm) = (0.0f64, 0.0f64);
            for &s in &sources[t] {
                let last = 0u64.wrapping_sub(u64::from(s >> 31));
                let x = (pm + contrib[(s & !LAST) as usize]).to_bits();
                sum += f64::from_bits(x & last);
                pm = f64::from_bits(x & !last);
            }
            *acc = sum;
        }
        incoming
    }

    #[test]
    fn run_sums_equal_the_dense_partial_fold_bit_for_bit() {
        let _guard = exec::TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Destinations where one flat sum over all sources differs from the
        // run fold: proof that this test can tell the two apart.
        let mut flat_differs = 0usize;
        // Runs past the last length class, and destinations without a
        // source: proof that both shapes were exercised.
        let (mut long_runs, mut empty) = (0usize, 0usize);
        for_each_seed(24, |_, rng| {
            let g = gather_graph(rng);
            let n = g.num_vertices();
            // Machines hold their edges in input order, not by source.
            let mut edges: Vec<(VertexId, VertexId)> = (0..n as VertexId)
                .flat_map(|s| g.out_neighbors(s).iter().map(move |&t| (s, t)))
                .collect();
            rng.shuffle(&mut edges);
            let ranks: Vec<f64> = (0..n).map(|_| rng.f64() * 3.0).collect();
            let deg: Vec<u32> = (0..n).map(|_| 1 + rng.below_u32(4)).collect();
            let contrib: Vec<f64> = ranks.iter().zip(&deg).map(|(r, &d)| r / d as f64).collect();
            let active: Vec<bool> = (0..n).map(|_| rng.below(3) > 0).collect();
            let mut indeg = vec![0usize; n];
            edges.iter().for_each(|&(_, t)| indeg[t as usize] += 1);
            empty += indeg.iter().filter(|&&d| d == 0).count();
            for machines in [1, 2, 3, 16, 64] {
                let mut by_machine = vec![Vec::new(); machines];
                for &e in &edges {
                    by_machine[rng.below(machines)].push(e);
                }
                for m in &by_machine {
                    let mut run = vec![0usize; n];
                    m.iter().for_each(|&(_, t)| run[t as usize] += 1);
                    long_runs += run.iter().filter(|&&l| l > SHORT).count();
                }
                for threads in [1, 4] {
                    exec::set_threads(threads);
                    for chunk in [1, 97, 4096] {
                        exec::set_chunk_size(chunk);
                        let mut rg =
                            RunGather::build(n, machines, |m| by_machine[m].iter().copied());
                        for mask in [None, Some(&active[..])] {
                            let want = dense_partials(n, &by_machine, &contrib, mask);
                            let masked = masked_loop(n, &by_machine, &contrib, mask);
                            let mut got = vec![f64::NAN; n];
                            rg.gather(&ranks, |u| u64::from(deg[u]), mask, &mut got);
                            for t in 0..n {
                                let at = format!(
                                    "vertex {t} of {n}, machines {machines}, threads \
                                     {threads}, chunk {chunk}, masked {}",
                                    mask.is_some()
                                );
                                assert_eq!(got[t].to_bits(), want[t].to_bits(), "{at}");
                                assert_eq!(got[t].to_bits(), masked[t].to_bits(), "{at}");
                            }
                        }
                    }
                }
                let flat = dense_partials(n, std::slice::from_ref(&edges), &contrib, None);
                let runs = dense_partials(n, &by_machine, &contrib, None);
                flat_differs += flat.iter().zip(&runs).filter(|(a, b)| a != b).count();
            }
        });
        exec::set_chunk_size(4096);
        exec::set_threads(1);
        assert!(flat_differs > 0, "no destination tells a flat sum from the run fold");
        assert!(long_runs > 0 && empty > 0, "long runs {long_runs}, empty destinations {empty}");
    }

    /// The loop [`MinLabel`] replaces, kept as its reference: Vertica's
    /// serial replay. Each source chunk scans its sources in ascending
    /// order, every out-edge offering each endpoint's label to the other
    /// endpoint; the chunk's private copy of `label` counts the strict
    /// improvements and `next` keeps the minimum.
    pub(crate) fn overlay_replay(
        g: &CsrGraph,
        label: &[VertexId],
        parts: usize,
    ) -> (Vec<VertexId>, u64) {
        let n = g.num_vertices();
        let mut next = label.to_vec();
        let mut updated = 0u64;
        for c in 0..parts {
            let mut own = label.to_vec();
            for s in source_chunk(c, parts, n) {
                for &d in g.out_neighbors(s as VertexId) {
                    let d = d as usize;
                    for (v, l) in [(d, label[s]), (s, label[d])] {
                        if l < own[v] {
                            own[v] = l;
                            updated += 1;
                        }
                        next[v] = next[v].min(l);
                    }
                }
            }
        }
        (next, updated)
    }

    /// GraphLab's scatter pass that [`MinLabel`] made redundant, kept as a
    /// reference: after a round, every edge signals the endpoint whose
    /// label exceeds the other's.
    fn scatter_signals(g: &CsrGraph, label: &[VertexId]) -> Vec<bool> {
        let mut signaled = vec![false; g.num_vertices()];
        for (u, v) in g.edges() {
            let (u, v) = (u as usize, v as usize);
            if label[u] < label[v] {
                signaled[v] = true;
            }
            if label[v] < label[u] {
                signaled[u] = true;
            }
        }
        signaled
    }

    #[test]
    fn min_label_equals_the_overlay_replay() {
        // Cases where one chunk offers a vertex two improvements in a row:
        // proof that the count is more than a changed flag per chunk.
        let mut repeats = 0usize;
        for_each_seed(40, |_, rng| {
            let g = gather_graph(rng);
            let n = g.num_vertices();
            let label: Vec<VertexId> = if rng.below(4) == 0 {
                (0..n as VertexId).collect()
            } else {
                let range = 1 + rng.below_u32(n as u32);
                (0..n).map(|_| rng.below_u32(range)).collect()
            };
            let signaled = scatter_signals(&g, &label);
            let kernel = MinLabel::build(&g);
            let mut next = vec![VertexId::MAX; n];
            let mut lowered = vec![VertexId::MAX; rng.below(2 * n)];
            kernel.step(&label, &mut next, &mut lowered);
            for machines in [1, 2, 3, 16, 64] {
                let (want, want_count) = overlay_replay(&g, &label, machines);
                let shrunk: Vec<VertexId> =
                    (0..n as VertexId).filter(|&v| want[v as usize] < label[v as usize]).collect();
                repeats += usize::from(want_count > shrunk.len() as u64 * machines as u64);
                let at = format!("{n} vertices, machines {machines}");
                assert_eq!(next, want, "labels, {at}");
                assert_eq!(lowered, shrunk, "improved vertices, {at}");
                let count = kernel.updated(&label, &lowered, machines);
                assert_eq!(count, want_count, "improvements, {at}");
                for v in 0..n {
                    assert_eq!(signaled[v], next[v] < label[v], "signal of {v}, {at}");
                }
            }
        });
        assert!(repeats > 0, "no chunk improved a vertex twice");
    }

    /// Each round of a traversal: the distances after it and its wave.
    type Waves = Vec<(Vec<u32>, Vec<VertexId>)>;

    fn start(n: usize, source: VertexId) -> Vec<u32> {
        let mut dist = vec![UNREACHABLE; n];
        dist[source as usize] = 0;
        dist
    }

    /// Hadoop/HaLoop's loop that [`expand`] replaced, kept as a reference:
    /// a Jacobi relax over every edge each iteration, sources at or past
    /// `bound` skipped, until nothing improves or `bound` iterations ran. A
    /// round's wave is the vertices it improved, ascending.
    fn full_scan_relax(g: &CsrGraph, source: VertexId, bound: u32) -> Waves {
        let n = g.num_vertices();
        let mut dist = start(n, source);
        let mut rounds = Vec::new();
        loop {
            let mut next = dist.clone();
            for s in 0..n as VertexId {
                let ds = dist[s as usize];
                if ds == UNREACHABLE || ds >= bound {
                    continue;
                }
                for &d in g.out_neighbors(s) {
                    next[d as usize] = next[d as usize].min(ds + 1);
                }
            }
            let wave: Vec<VertexId> =
                (0..n as VertexId).filter(|&v| next[v as usize] < dist[v as usize]).collect();
            let changed = !wave.is_empty();
            dist = next;
            rounds.push((dist.clone(), wave));
            if !changed || rounds.len() as u64 >= u64::from(bound) {
                return rounds;
            }
        }
    }

    /// GraphX's loop that [`expand`] replaced, kept as a reference: every
    /// machine tests each of its edges against the active flags, the
    /// improvements over the frozen distances apply first touch wins in
    /// machine order, and the improved vertices are the next active set,
    /// until none improves.
    fn active_edge_scan(
        n: usize,
        by_machine: &[Vec<(VertexId, VertexId)>],
        source: VertexId,
        bound: u32,
    ) -> Waves {
        let mut dist = start(n, source);
        let mut active = vec![false; n];
        active[source as usize] = true;
        let mut frontier = vec![source];
        let mut rounds = Vec::new();
        while !frontier.is_empty() {
            let mut improved = Vec::new();
            for &(u, v) in by_machine.iter().flatten() {
                let d = dist[u as usize];
                if active[u as usize] && d < bound && d + 1 < dist[v as usize] {
                    improved.push((v, d + 1));
                }
            }
            for &v in &frontier {
                active[v as usize] = false;
            }
            frontier.clear();
            for (v, d) in improved {
                if d < dist[v as usize] {
                    dist[v as usize] = d;
                    active[v as usize] = true;
                    frontier.push(v);
                }
            }
            rounds.push((dist.clone(), frontier.clone()));
        }
        rounds
    }

    /// Vertica's loop, from which [`expand`] was lifted, kept as a
    /// reference: frontier spans emit their unvisited out-neighbours
    /// against the frozen distances, and the spans' candidates apply in
    /// span order, first touch wins, under `depth < bound`.
    fn span_bucket_expand(g: &CsrGraph, source: VertexId, bound: u32) -> Waves {
        let mut dist = start(g.num_vertices(), source);
        let mut frontier = vec![source];
        let mut depth = 0u32;
        let mut rounds = Vec::new();
        while !frontier.is_empty() && depth < bound {
            let weights: Vec<u64> = frontier.iter().map(|&v| 1 + g.out_degree(v)).collect();
            let spans = exec::weighted_spans(&weights, exec::chunk_size());
            let mut tasks: Vec<(&[VertexId], Vec<VertexId>)> =
                spans.iter().map(|&(s, e)| (&frontier[s..e], Vec::new())).collect();
            let frozen: &[u32] = &dist;
            exec::run_chunks(&mut tasks, |_, (span, found)| {
                for &v in *span {
                    for &t in g.out_neighbors(v) {
                        if frozen[t as usize] == UNREACHABLE {
                            found.push(t);
                        }
                    }
                }
            });
            let mut next = Vec::new();
            for (_, found) in &tasks {
                for &t in found {
                    if dist[t as usize] == UNREACHABLE {
                        dist[t as usize] = depth + 1;
                        next.push(t);
                    }
                }
            }
            rounds.push((dist.clone(), next.clone()));
            frontier = next;
            depth += 1;
        }
        rounds
    }

    /// The kernel under one engine's loop: `more(frontier, depth)` decides
    /// whether another round runs.
    fn kernel_rounds(
        g: &CsrGraph,
        source: VertexId,
        bound: u32,
        more: impl Fn(&[VertexId], u32) -> bool,
    ) -> Waves {
        let mut dist = start(g.num_vertices(), source);
        let (mut frontier, mut next) = (vec![source], Vec::new());
        let mut rounds = Vec::new();
        let mut depth = 0u32;
        while more(&frontier, depth) {
            expand(g, &mut dist, &frontier, depth, bound, &mut next);
            std::mem::swap(&mut frontier, &mut next);
            rounds.push((dist.clone(), frontier.clone()));
            depth += 1;
        }
        rounds
    }

    /// `rounds` with every wave sorted.
    fn as_sets(mut rounds: Waves) -> Waves {
        for (_, wave) in &mut rounds {
            wave.sort_unstable();
        }
        rounds
    }

    #[test]
    fn frontier_equals_the_traversal_loops() {
        // Rounds whose wave GraphX's machine-major apply lists in another
        // order than the frontier scan: proof that the exact comparison
        // with Vertica's loop is stricter than the set ones.
        let mut reordered = 0usize;
        for_each_seed(24, |_, rng| {
            let g = gather_graph(rng);
            let n = g.num_vertices();
            let source = rng.below_u32(n as u32);
            let mut edges: Vec<(VertexId, VertexId)> = (0..n as VertexId)
                .flat_map(|s| g.out_neighbors(s).iter().map(move |&t| (s, t)))
                .collect();
            rng.shuffle(&mut edges);
            for bound in [0, 1, 2, 3, u32::MAX] {
                let hadoop = as_sets(full_scan_relax(&g, source, bound));
                for machines in [1, 2, 3, 16, 64] {
                    let mut by_machine = vec![Vec::new(); machines];
                    for &e in &edges {
                        by_machine[rng.below(machines)].push(e);
                    }
                    let graphx = active_edge_scan(n, &by_machine, source, bound);
                    let at = format!(
                        "{n} vertices, source {source}, bound {bound}, machines {machines}"
                    );
                    let vertica = span_bucket_expand(&g, source, bound);
                    let got = kernel_rounds(&g, source, bound, |f, d| !f.is_empty() && d < bound);
                    assert_eq!(got, vertica, "Vertica's loop, {at}");
                    let got = kernel_rounds(&g, source, bound, |f, d| {
                        d == 0 || (!f.is_empty() && d < bound)
                    });
                    assert_eq!(as_sets(got), hadoop, "Hadoop's loop, {at}");
                    let got = kernel_rounds(&g, source, bound, |f, _| !f.is_empty());
                    reordered += got.iter().zip(&graphx).filter(|(a, b)| a.1 != b.1).count();
                    assert_eq!(as_sets(got), as_sets(graphx.clone()), "GraphX's loop, {at}");
                }
            }
        });
        assert!(reordered > 0, "no wave told the frontier scan from the machine-major apply");
    }

    /// Every workload [`Rounds`] steps, from `source`, with its hash-to-min
    /// flag: PageRank to a tolerance and for a fixed count, WCC with and
    /// without the pointer jump, SSSP, and K-hop at k = 0..=3.
    fn workloads(source: VertexId) -> Vec<(Workload, bool)> {
        let tol = PageRankConfig {
            stop: StopCriterion::Tolerance(1e-9),
            ..PageRankConfig::paper_exact()
        };
        let mut ws = vec![
            (Workload::PageRank(tol), false),
            (Workload::PageRank(PageRankConfig::fixed(7)), false),
            (Workload::Wcc, false),
            (Workload::Wcc, true),
            (Workload::Sssp { source }, false),
        ];
        ws.extend((0..4).map(|k| (Workload::KHop { source, k }, false)));
        ws
    }

    /// The two graph families the engines' kernels are tested on.
    fn graphs(rng: &mut Rng) -> [CsrGraph; 2] {
        [gather_graph(rng), crate::bsp::tests::street_graph(rng)]
    }

    fn rounds<'g>(g: &'g CsrGraph, w: Workload, hash_to_min: bool) -> Rounds<'g> {
        Rounds::new(g, w, hash_to_min, || crate::hadoop::source_chunk_runs(g, 3))
    }

    #[test]
    fn rounds_reach_the_reference_answers() {
        for_each_seed(16, |_, rng| {
            for g in &graphs(rng) {
                let n = g.num_vertices();
                let source = rng.below_u32(n as u32);
                for (w, h2m) in workloads(source) {
                    for end in [KHopEnd::AtK, KHopEnd::EmptyWave] {
                        let at = format!("{n} vertices, {w:?}, hash-to-min {h2m}, {end:?}");
                        let mut r = rounds(g, w, h2m);
                        while !r.done(end) {
                            r.step();
                        }
                        let ran = r.round();
                        match (r.into_result(), w) {
                            (WorkloadResult::Ranks(got), Workload::PageRank(cfg)) => {
                                let (want, iterations) = reference::pagerank(g, &cfg);
                                if let StopCriterion::Iterations(k) = cfg.stop {
                                    assert_eq!((ran, iterations), (k, k), "{at}");
                                }
                                for (a, b) in got.iter().zip(&want) {
                                    assert!((a - b).abs() < 1e-9, "{a} vs {b}, {at}");
                                }
                            }
                            (WorkloadResult::Labels(got), Workload::Wcc) => {
                                assert_eq!(got, reference::wcc(g), "{at}");
                            }
                            (WorkloadResult::Distances(got), Workload::Sssp { .. }) => {
                                assert_eq!(got, reference::sssp(g, source), "{at}");
                                let depth = got.iter().filter(|&&d| d != UNREACHABLE).max();
                                assert_eq!(Some(&(ran - 1)), depth, "rounds, {at}");
                            }
                            (WorkloadResult::Distances(got), Workload::KHop { k, .. }) => {
                                assert_eq!(got, reference::khop(g, source, k), "{at}");
                                // One round per wave, and one for the empty
                                // wave that ends the run, unless `AtK` stops
                                // at the bound first.
                                let depth =
                                    *got.iter().filter(|&&d| d != UNREACHABLE).max().unwrap();
                                let want = if depth < k {
                                    depth + 1
                                } else {
                                    k + u32::from(end == KHopEnd::EmptyWave)
                                };
                                assert_eq!(ran, want, "rounds, {at}");
                            }
                            (got, _) => panic!("{got:?}, {at}"),
                        }
                    }
                }
            }
        });
    }

    /// The state a round leaves: the ranks' bits, the labels, or the
    /// distances followed by the wave.
    fn state_bits(r: &Rounds) -> Vec<u64> {
        match &r.work {
            Work::PageRank { ranks, .. } => ranks.iter().map(|x| x.to_bits()).collect(),
            Work::Wcc { label, .. } => label.iter().map(|&l| u64::from(l)).collect(),
            Work::Traversal { dist, frontier, .. } => {
                dist.iter().chain(frontier).map(|&x| u64::from(x)).collect()
            }
        }
    }

    #[test]
    fn restoring_any_saved_round_and_replaying_reaches_the_same_state() {
        // Replays that had rounds to re-run: proof that a restore which kept
        // the round count would be told apart.
        let mut replayed = 0usize;
        for_each_seed(12, |_, rng| {
            for g in &graphs(rng) {
                let n = g.num_vertices();
                let source = rng.below_u32(n as u32);
                for (w, h2m) in workloads(source) {
                    let end = KHopEnd::EmptyWave;
                    let mut clean = rounds(g, w, h2m);
                    let mut states = vec![state_bits(&clean)];
                    while !clean.done(end) {
                        clean.step();
                        states.push(state_bits(&clean));
                    }
                    let last = clean.round();
                    for saved in 0..=last {
                        let at = format!("{n} vertices, {w:?}, hash-to-min {h2m}, saved {saved}");
                        let mut r = rounds(g, w, h2m);
                        while r.round() < saved {
                            r.step();
                        }
                        r.save();
                        // A crash at any later round rewinds to the save and
                        // re-runs the rounds since.
                        let crash = saved + rng.below_u32(last - saved + 1);
                        while r.round() < crash {
                            r.step();
                        }
                        r.restore();
                        while r.round() < crash {
                            r.step();
                        }
                        replayed += usize::from(states[crash as usize] != states[saved as usize]);
                        assert_eq!(state_bits(&r), states[crash as usize], "crash {crash}, {at}");
                        while !r.done(end) {
                            r.step();
                        }
                        assert_eq!(r.round(), last, "{at}");
                        assert_eq!(state_bits(&r), states[last as usize], "{at}");
                    }
                }
            }
        });
        assert!(replayed > 0, "no replay re-ran a round that changed the state");
    }
}
