//! GraphLab / PowerGraph: the Gather-Apply-Scatter system (§2.1.2, §2.2).
//!
//! C++/MPI with **vertex-cut** partitioning: edges are assigned to machines
//! and vertices are replicated wherever they have edges. One replica is the
//! master; mirrors send partial gather results to it and receive the applied
//! value back — so the replication factor (Table 4) drives both memory and
//! per-iteration network traffic.
//!
//! Faithfully reproduced behaviours:
//!
//! * **Partitioning strategies** Random / Grid / PDS / Oblivious / Auto
//!   (§4.4.1) with their load-time differences (§5.4);
//! * **no self-edge support** (§3.1.1): self-loops are dropped at load and
//!   recorded as a correctness caveat;
//! * **undirected edge access**: WCC needs no reverse-edge discovery pass,
//!   at a memory premium (§3.2);
//! * **approximate PageRank** (§5.2): converged vertices opt out while still
//!   being gathered from; per-iteration update counts are exported (Fig. 4);
//! * **synchronous mode** reserves 2 of 4 cores for networking by default
//!   (§4.4.2, Fig. 1);
//! * **asynchronous mode** (§2.2, §5.3): Gauss–Seidel-style eager updates
//!   converge in fewer sweeps but pay distributed-locking costs, and lock
//!   records released at a rate that *shrinks with cluster size* accumulate
//!   on long-running workloads — the WRN-at-128-machines OOM of Figure 10.

use crate::exec;
use crate::recovery::{Recovery, RecoveryModel};
use crate::{dataset_bytes, even_share, result_bytes, Engine, EngineInput, RunOutput};
use graphbench_algos::workload::{PageRankConfig, StopCriterion};
use graphbench_algos::{Workload, WorkloadResult, UNREACHABLE};
use graphbench_graph::format::GraphFormat;
use graphbench_graph::rng::Rng;
use graphbench_graph::VertexId;
use graphbench_partition::{VertexCutPartition, VertexCutStrategy};
use graphbench_sim::{Cluster, CostProfile, Phase, SimError};

/// Synchronous or asynchronous execution engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GasMode {
    Sync,
    Async,
}

/// GraphLab configuration (one paper variant, e.g. GL-S-R-T).
#[derive(Debug, Clone)]
pub struct GraphLab {
    pub mode: GasMode,
    /// Random or Auto in the paper's variant grid.
    pub partitioning: VertexCutStrategy,
    /// Cores used for computation. GraphLab's default reserves two cores
    /// for networking (§4.4.2); Figure 1 sweeps this.
    pub compute_cores: u32,
    /// Approximate PageRank: converged vertices opt out (§5.2). GraphLab is
    /// the only system able to do this.
    pub approximate_pagerank: bool,
}

impl GraphLab {
    /// GL-S-R-*: synchronous, random partitioning.
    pub fn sync_random() -> Self {
        GraphLab {
            mode: GasMode::Sync,
            partitioning: VertexCutStrategy::Random,
            compute_cores: 2,
            approximate_pagerank: false,
        }
    }

    /// GL-S-A-*: synchronous, auto partitioning.
    pub fn sync_auto() -> Self {
        GraphLab { partitioning: VertexCutStrategy::Auto, ..GraphLab::sync_random() }
    }

    /// GL-A-R-T: asynchronous, random partitioning.
    pub fn async_random() -> Self {
        GraphLab { mode: GasMode::Async, ..GraphLab::sync_random() }
    }

    /// GL-A-A-T: asynchronous, auto partitioning.
    pub fn async_auto() -> Self {
        GraphLab {
            mode: GasMode::Async,
            partitioning: VertexCutStrategy::Auto,
            ..GraphLab::sync_random()
        }
    }

    fn mode_letter(&self) -> char {
        match self.mode {
            GasMode::Sync => 'S',
            GasMode::Async => 'A',
        }
    }

    fn part_letter(&self) -> char {
        match self.partitioning {
            VertexCutStrategy::Random => 'R',
            _ => 'A',
        }
    }
}

/// GraphLab's cost constants: native code, MPI, but heavier per-replica
/// state than Blogel (gather accumulators, sync bookkeeping).
fn graphlab_profile() -> CostProfile {
    CostProfile {
        sec_per_op: 500.0e-9,
        job_startup: 2.0,
        job_startup_per_machine: 0.05,
        superstep_overhead: 0.01,
        bytes_per_vertex: 215, // per *replica*: data + gather accumulator + sync state
        bytes_per_edge: 16,
        bytes_per_message: 16,
    }
}

impl Engine for GraphLab {
    fn short_name(&self) -> String {
        format!("GL-{}-{}", self.mode_letter(), self.part_letter())
    }

    fn name(&self) -> String {
        format!(
            "GraphLab ({}, {} partitioning)",
            match self.mode {
                GasMode::Sync => "synchronous",
                GasMode::Async => "asynchronous",
            },
            self.partitioning.name()
        )
    }

    fn run(&self, input: &EngineInput<'_>) -> RunOutput {
        let mut cluster = Cluster::new(input.cluster.clone(), graphlab_profile());
        let mut notes = Vec::new();
        let mut updates = Vec::new();
        let outcome = execute(self, &mut cluster, input, &mut notes, &mut updates);
        let mut out = crate::util::output_from(cluster, outcome, notes);
        out.updates_per_iteration = updates;
        out
    }
}

/// Dense per-endpoint index over one machine's local edges, built by
/// counting (no hashing in the hot loops): a CSR offset table over global
/// vertex ids plus the list of endpoints that actually have edges here.
/// Per-endpoint edge ids keep insertion order, like the `HashMap<_, Vec<_>>`
/// it replaces — per-vertex f64 folds are unchanged — but iteration over
/// endpoints is ascending and allocation-free.
pub(crate) struct EdgeIndex {
    /// `off[v]..off[v + 1]` delimits vertex `v`'s slice of `ids`.
    off: Vec<u32>,
    /// Local edge ids grouped by endpoint, insertion order within a group.
    ids: Vec<u32>,
    /// Endpoints with at least one local edge, ascending.
    verts: Vec<VertexId>,
}

impl EdgeIndex {
    pub(crate) fn build(
        n: usize,
        edges: &[(VertexId, VertexId)],
        key: impl Fn(&(VertexId, VertexId)) -> VertexId,
    ) -> EdgeIndex {
        let mut off = vec![0u32; n + 1];
        for e in edges {
            off[key(e) as usize + 1] += 1;
        }
        for v in 0..n {
            off[v + 1] += off[v];
        }
        let mut cursor: Vec<u32> = off[..n].to_vec();
        let mut ids = vec![0u32; edges.len()];
        for (i, e) in edges.iter().enumerate() {
            let k = key(e) as usize;
            ids[cursor[k] as usize] = i as u32;
            cursor[k] += 1;
        }
        let verts = (0..n as VertexId).filter(|&v| off[v as usize + 1] > off[v as usize]).collect();
        EdgeIndex { off, ids, verts }
    }

    /// Positions of `v`'s group in the endpoint-grouped edge order — the
    /// order of [`EdgeIndex::of`] over ascending [`EdgeIndex::verts`] — so a
    /// caller can keep a per-edge array laid out the same way.
    pub(crate) fn range(&self, v: VertexId) -> std::ops::Range<usize> {
        self.off[v as usize] as usize..self.off[v as usize + 1] as usize
    }

    /// Local edge ids incident to `v` (empty when `v` has none here).
    pub(crate) fn of(&self, v: VertexId) -> &[u32] {
        &self.ids[self.range(v)]
    }

    /// Endpoints with at least one local edge, ascending.
    pub(crate) fn verts(&self) -> &[VertexId] {
        &self.verts
    }
}

/// Degree-aware intra-machine chunk plan over one `EdgeIndex`'s endpoint
/// groups: `(group_start, group_end, window_end)` triples where
/// `groups[group_start..group_end]` is the span's slice of `idx.verts()` and
/// `window_end` is the first vertex id *not* owned by the span's window of
/// the machine's dense per-vertex array (the last span's `window_end` is
/// `n`, the first span's window starts at 0). Windows tile `0..n`, so chunk
/// tasks can claim disjoint `&mut` sub-slices via `split_at_mut` and still
/// zero every entry between them.
///
/// Weights are `1 + group degree`: a power-law hub's gather group lands in
/// a small (often single-group) span instead of serializing its machine.
pub(crate) fn gather_plan(idx: &EdgeIndex, n: usize) -> Vec<(usize, usize, usize)> {
    let verts = idx.verts();
    let weights: Vec<u64> = verts.iter().map(|&v| 1 + idx.of(v).len() as u64).collect();
    let spans = exec::weighted_spans(&weights, exec::chunk_size());
    if spans.is_empty() {
        // No gather groups on this machine; one empty task still owns (and
        // zeroes) the whole window.
        return vec![(0, 0, n)];
    }
    let last = spans.len() - 1;
    spans
        .iter()
        .enumerate()
        .map(|(k, &(s, e))| {
            let window_end = if k == last { n } else { verts[spans[k + 1].0] as usize };
            (s, e, window_end)
        })
        .collect()
}

/// Per-machine edge store with per-vertex indexes (GraphLab keeps edges
/// indexed by both endpoints so gather can run over either direction).
struct MachineData {
    /// Directed local edges.
    edges: Vec<(VertexId, VertexId)>,
    /// Gather over in-edges: dense index keyed by dst.
    in_idx: EdgeIndex,
    /// Scatter over out-edges: dense index keyed by src.
    out_idx: EdgeIndex,
}

fn execute(
    engine: &GraphLab,
    cluster: &mut Cluster,
    input: &EngineInput<'_>,
    notes: &mut Vec<String>,
    updates: &mut Vec<u64>,
) -> Result<WorkloadResult, SimError> {
    let machines = cluster.machines();
    let n = input.graph.num_vertices();
    let profile = *cluster.profile();

    cluster.begin_phase(Phase::Overhead);
    cluster.charge_startup()?;

    // ---- Load ----
    cluster.begin_phase(Phase::Load);
    let dataset = dataset_bytes(input.edges, GraphFormat::Adj);
    cluster.hdfs_read(&even_share(dataset, machines))?;

    // GraphLab cannot represent self-edges (§3.1.1).
    let mut edges = input.edges.clone();
    let dropped = edges.remove_self_edges();
    if dropped > 0 {
        notes.push(format!(
            "GraphLab dropped {dropped} self-edges; PageRank values are incorrect on this dataset (§3.1.1)"
        ));
    }

    // Vertex-cut partitioning; placement cost depends on the strategy.
    let part = VertexCutPartition::build(&edges, machines, engine.partitioning, input.seed)
        .expect("Random/Auto never fail");
    let per_edge_placement_ops: f64 = match part.resolved_strategy() {
        VertexCutStrategy::Random => 1.0,
        VertexCutStrategy::Grid | VertexCutStrategy::Grid2D | VertexCutStrategy::Pds => 4.0,
        // Oblivious maintains replica sets while placing: markedly slower
        // loads at 32/128 machines where Auto falls back to it (§5.4).
        VertexCutStrategy::Oblivious | VertexCutStrategy::Auto => 14.0,
    };
    let m_edges = edges.num_edges();
    let place_ops = even_share((m_edges as f64 * per_edge_placement_ops) as u64, machines)
        .iter()
        .map(|&x| x as f64)
        .collect::<Vec<_>>();
    cluster.set_label("partition");
    cluster.advance_compute(&place_ops, input.cluster.cores)?;
    notes.push(format!(
        "vertex-cut: strategy {}, replication factor {:.2}",
        part.resolved_strategy().name(),
        part.replication_factor()
    ));

    // Shuffle edges to their machines and materialize replicas.
    cluster.set_label("shuffle");
    let moved = dataset - dataset / machines as u64;
    cluster.exchange(
        &even_share(moved, machines),
        &even_share(moved, machines),
        &even_share(m_edges, machines),
    )?;
    let mut resident = vec![0u64; machines];
    let counts = part.edges_per_machine();
    for (m, &c) in counts.iter().enumerate() {
        resident[m] = c * profile.bytes_per_edge;
    }
    for v in 0..n as VertexId {
        for &m in part.replicas_of(v) {
            resident[m as usize] += profile.bytes_per_vertex;
        }
    }
    cluster.set_label("load");
    cluster.alloc_all(&resident)?;
    cluster.sample_trace();

    // Build per-machine indexed edge stores: a chunk-parallel scatter whose
    // per-machine edge order matches the serial loop exactly.
    let mut local_edges: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); machines];
    crate::shuffle::par_scatter(
        &edges.edges,
        machines,
        |i, e| (part.machine_of_edge(i) as usize, (e.src, e.dst)),
        &mut local_edges,
    );
    let data: Vec<MachineData> = local_edges
        .into_iter()
        .map(|edges| {
            let in_idx = EdgeIndex::build(n, &edges, |&(_, dst)| dst);
            let out_idx = EdgeIndex::build(n, &edges, |&(src, _)| src);
            MachineData { edges, in_idx, out_idx }
        })
        .collect();

    // Out-degrees on the self-edge-free graph (PageRank denominators).
    let mut outdeg = vec![0u32; n];
    for e in &edges.edges {
        outdeg[e.src as usize] += 1;
    }

    // Approximate PageRank keeps a per-in-edge gather cache so inactive
    // neighbours' contributions stay available (§5.2) — the memory overhead
    // the paper blames for the UK-random-at-16 OOM.
    if engine.approximate_pagerank && matches!(input.workload, Workload::PageRank(_)) {
        let cache: Vec<u64> = counts.iter().map(|&c| c * 40).collect();
        cluster.alloc_all(&cache)?;
    }

    // ---- Execute ----
    cluster.begin_phase(Phase::Execute);
    let ctx = GasCtx {
        engine,
        part: &part,
        data: &data,
        outdeg: &outdeg,
        n,
        machines,
        cores: engine.compute_cores.min(input.cluster.cores),
        seed: input.seed,
    };
    // The paper ran GraphLab without snapshots, so a machine loss restarts
    // the computation (Table 1): query-restart cost at every iteration
    // boundary, detected through the same unified recovery layer as every
    // other engine.
    let mut recovery = Recovery::new(cluster, RecoveryModel::QueryRestart);
    let result = match input.workload {
        Workload::PageRank(pr) => {
            let mut cfg = pr;
            cfg.approximate = engine.approximate_pagerank;
            WorkloadResult::Ranks(match engine.mode {
                GasMode::Sync => sync_pagerank(cluster, &ctx, &cfg, updates, &mut recovery)?,
                GasMode::Async => async_pagerank(cluster, &ctx, &cfg, updates, &mut recovery)?,
            })
        }
        Workload::Wcc => WorkloadResult::Labels(wcc_propagate(cluster, &ctx, &mut recovery)?),
        Workload::Sssp { source } => {
            WorkloadResult::Distances(traversal(cluster, &ctx, source, u32::MAX, &mut recovery)?)
        }
        Workload::KHop { source, k } => {
            WorkloadResult::Distances(traversal(cluster, &ctx, source, k, &mut recovery)?)
        }
    };

    // ---- Save ----
    cluster.begin_phase(Phase::Save);
    cluster.hdfs_write(&even_share(result_bytes(n as u64), machines))?;
    Ok(result)
}

struct GasCtx<'a> {
    engine: &'a GraphLab,
    part: &'a VertexCutPartition,
    data: &'a [MachineData],
    outdeg: &'a [u32],
    n: usize,
    machines: usize,
    cores: u32,
    seed: u64,
}

impl GasCtx<'_> {
    /// Effective compute cores: async cannot exploit extra cores because
    /// vertices compute and communicate at the same time (§4.4.2, Fig. 1).
    fn effective_cores(&self) -> u32 {
        match self.engine.mode {
            GasMode::Sync => self.cores,
            GasMode::Async => self.cores.min(2),
        }
    }

    /// Async op inflation when more cores are thrown at computation
    /// (context switching, §4.4.2).
    fn async_op_penalty(&self) -> f64 {
        if self.engine.mode == GasMode::Async && self.cores > 2 {
            1.0 + 0.15 * (self.cores - 2) as f64
        } else {
            1.0
        }
    }

    /// Charge a master↔mirror synchronization for `changed` vertices:
    /// every changed vertex sends its new value to all its mirrors.
    fn charge_mirror_sync(
        &self,
        cluster: &mut Cluster,
        changed: impl Iterator<Item = VertexId>,
    ) -> Result<(), SimError> {
        let mut sent = vec![0u64; self.machines];
        let mut recv = vec![0u64; self.machines];
        let mut msgs = vec![0u64; self.machines];
        for v in changed {
            let master = self.part.master_of(v) as usize;
            for &m in self.part.replicas_of(v) {
                if m as usize != master {
                    sent[master] += 12;
                    recv[m as usize] += 12;
                    msgs[master] += 1;
                }
            }
        }
        cluster.set_label("mirror_sync");
        cluster.exchange(&sent, &recv, &msgs)
    }
}

/// Synchronous GAS PageRank. Exact mode keeps every vertex active until the
/// aggregated max delta passes the tolerance (or the iteration budget ends);
/// approximate mode deactivates converged vertices (§5.2).
fn sync_pagerank(
    cluster: &mut Cluster,
    ctx: &GasCtx<'_>,
    cfg: &PageRankConfig,
    updates: &mut Vec<u64>,
    recovery: &mut Recovery,
) -> Result<Vec<f64>, SimError> {
    let n = ctx.n;
    let mut ranks = vec![1.0f64; n];
    let mut active = vec![true; n];
    let (tol, max_iters) = match cfg.stop {
        StopCriterion::Tolerance(t) => (t, u32::MAX),
        StopCriterion::Iterations(k) => (0.0, k),
    };
    // Per-machine partial gather accumulators, allocated once and reused
    // every iteration. Each machine's dense window is carved into
    // degree-aware chunk tasks (`exec::run_chunks`) writing disjoint
    // sub-windows; per-chunk counters stay integral until the per-machine
    // merge in ascending (machine, chunk) order, and each vertex's in-edge
    // fold runs whole inside one chunk — so the sums (and therefore the
    // ranks) are identical at any `GRAPHBENCH_THREADS × GRAPHBENCH_CHUNK`.
    struct GatherScratch {
        incoming: Vec<f64>,
    }
    struct GatherTask<'a> {
        machine: usize,
        verts: &'a [VertexId],
        base: usize,
        window: &'a mut [f64],
    }
    struct GatherChunk {
        ops: u64,
        partials: u64,
        sent: u64,
        msgs: u64,
        recv_by: Vec<u64>,
    }
    struct ApplyTask<'a> {
        base: usize,
        ranks: &'a mut [f64],
        active: &'a mut [bool],
        /// Pooled across iterations (the per-superstep `Vec::new()` this
        /// loop used to allocate); concatenated in chunk order, which is
        /// exactly the serial scan order.
        changed: Vec<VertexId>,
    }
    struct ApplyChunk {
        max_delta: f64,
        updated: u64,
        by_master: Vec<u64>,
    }
    let mut scratch: Vec<GatherScratch> =
        (0..ctx.machines).map(|_| GatherScratch { incoming: vec![0.0f64; n] }).collect();
    // Chunk plans are a function of the static edge indexes; build once.
    let plans: Vec<Vec<(usize, usize, usize)>> =
        ctx.data.iter().map(|md| gather_plan(&md.in_idx, n)).collect();
    let total_spans: usize = plans.iter().map(Vec::len).sum();
    let apply_spans = exec::uniform_spans(n, exec::chunk_size());
    let mut changed_pool: Vec<Vec<VertexId>> = vec![Vec::new(); apply_spans.len()];
    let mut incoming = vec![0.0f64; n];
    let mut ops = vec![0.0f64; ctx.machines];
    let mut sent = vec![0u64; ctx.machines];
    let mut recv = vec![0u64; ctx.machines];
    let mut msgs = vec![0u64; ctx.machines];
    let mut transient = vec![0u64; ctx.machines];
    let mut apply_ops = vec![0.0f64; ctx.machines];
    let mut iter = 0u32;
    loop {
        if iter >= max_iters {
            break;
        }
        // Gather: chunk tasks scan local in-edges of active vertices and
        // write per-vertex partial sums into their machine's window.
        cluster.set_label("gather");
        let mut tasks: Vec<GatherTask> = Vec::with_capacity(total_spans);
        for (m, s) in scratch.iter_mut().enumerate() {
            let md = &ctx.data[m];
            let mut rest: &mut [f64] = &mut s.incoming;
            let mut base = 0usize;
            for &(gs, ge, window_end) in &plans[m] {
                let (window, tail) = rest.split_at_mut(window_end - base);
                tasks.push(GatherTask {
                    machine: m,
                    verts: &md.in_idx.verts()[gs..ge],
                    base,
                    window,
                });
                rest = tail;
                base = window_end;
            }
        }
        let chunk_steps: Vec<GatherChunk> = exec::run_chunks(&mut tasks, |_, t| {
            let md = &ctx.data[t.machine];
            t.window.fill(0.0);
            let mut chunk_ops = 0u64;
            let mut partials = 0u64;
            let mut my_sent = 0u64;
            let mut my_msgs = 0u64;
            let mut recv_by = vec![0u64; ctx.machines];
            for &v in t.verts {
                if !active[v as usize] {
                    continue;
                }
                let mut sum = 0.0f64;
                for &i in md.in_idx.of(v) {
                    let (u, _) = md.edges[i as usize];
                    sum += ranks[u as usize] / ctx.outdeg[u as usize] as f64;
                    chunk_ops += 1;
                }
                t.window[v as usize - t.base] = sum;
                partials += 1;
                let master = ctx.part.master_of(v) as usize;
                if master != t.machine {
                    my_sent += 12;
                    recv_by[master] += 12;
                    my_msgs += 1;
                }
            }
            GatherChunk { ops: chunk_ops, partials, sent: my_sent, msgs: my_msgs, recv_by }
        });
        drop(tasks);
        recv.fill(0);
        let mut ci = 0usize;
        for m in 0..ctx.machines {
            let (mut o, mut pb, mut se, mut ms) = (0u64, 0u64, 0u64, 0u64);
            for _ in &plans[m] {
                let c = &chunk_steps[ci];
                ci += 1;
                o += c.ops;
                pb += c.partials;
                se += c.sent;
                ms += c.msgs;
                for (j, &b) in c.recv_by.iter().enumerate() {
                    recv[j] += b;
                }
            }
            ops[m] = o as f64 * ctx.async_op_penalty();
            sent[m] = se;
            msgs[m] = ms;
            transient[m] = pb * 16;
        }
        incoming.fill(0.0);
        for s in &scratch {
            for (acc, p) in incoming.iter_mut().zip(&s.incoming) {
                *acc += p;
            }
        }
        cluster.set_label("gather");
        cluster.alloc_all(&transient)?;
        cluster.advance_compute(&ops, ctx.effective_cores())?;
        cluster.exchange(&sent, &recv, &msgs)?;
        cluster.free_all(&transient);

        // Apply at masters + scatter new values to mirrors: vertex-range
        // chunk tasks own disjoint rank/active windows. `max_delta` is an
        // order-free max-fold and the per-master op counts stay integral
        // until the merge, so the serial result is reproduced exactly.
        cluster.set_label("apply");
        let mut tasks: Vec<ApplyTask> = Vec::with_capacity(apply_spans.len());
        {
            let mut ranks_rest: &mut [f64] = &mut ranks;
            let mut active_rest: &mut [bool] = &mut active;
            for (k, &(s, e)) in apply_spans.iter().enumerate() {
                let (rw, rt) = ranks_rest.split_at_mut(e - s);
                let (aw, at) = active_rest.split_at_mut(e - s);
                let mut changed = std::mem::take(&mut changed_pool[k]);
                changed.clear();
                tasks.push(ApplyTask { base: s, ranks: rw, active: aw, changed });
                ranks_rest = rt;
                active_rest = at;
            }
        }
        let apply_steps: Vec<ApplyChunk> = exec::run_chunks(&mut tasks, |_, t| {
            let mut max_delta = 0.0f64;
            let mut updated = 0u64;
            let mut by_master = vec![0u64; ctx.machines];
            for i in 0..t.ranks.len() {
                if !t.active[i] {
                    continue;
                }
                let v = t.base + i;
                let new = cfg.damping + (1.0 - cfg.damping) * incoming[v];
                let delta = (new - t.ranks[i]).abs();
                max_delta = max_delta.max(delta);
                t.ranks[i] = new;
                updated += 1;
                by_master[ctx.part.master_of(v as VertexId) as usize] += 1;
                t.changed.push(v as VertexId);
                if cfg.approximate && delta < tol {
                    t.active[i] = false;
                }
            }
            ApplyChunk { max_delta, updated, by_master }
        });
        let mut max_delta = 0.0f64;
        let mut updated = 0u64;
        apply_ops.fill(0.0);
        for step in &apply_steps {
            max_delta = max_delta.max(step.max_delta);
            updated += step.updated;
            for (m, &c) in step.by_master.iter().enumerate() {
                apply_ops[m] += c as f64;
            }
        }
        cluster.advance_compute(&apply_ops, ctx.effective_cores())?;
        ctx.charge_mirror_sync(cluster, tasks.iter().flat_map(|t| t.changed.iter().copied()))?;
        for (k, t) in tasks.into_iter().enumerate() {
            changed_pool[k] = t.changed;
        }
        if cluster.has_observers() {
            // Observability hint only: vertices applied this iteration.
            cluster.report_active(updated);
        }
        cluster.set_label("barrier");
        cluster.barrier()?;
        recovery.at_barrier(cluster)?;
        cluster.sample_trace();
        updates.push(updated);
        iter += 1;
        let stop =
            if cfg.approximate { !active.iter().any(|&a| a) } else { tol > 0.0 && max_delta < tol };
        if stop {
            break;
        }
    }
    Ok(ranks)
}

/// Asynchronous GAS PageRank: eager (Gauss–Seidel) updates over a seeded
/// random schedule. Fewer sweeps than sync, but every task negotiates
/// distributed locks across its replicas, and lock records drain at a rate
/// that shrinks with cluster size — long runs accumulate memory (§5.3).
fn async_pagerank(
    cluster: &mut Cluster,
    ctx: &GasCtx<'_>,
    cfg: &PageRankConfig,
    updates: &mut Vec<u64>,
    recovery: &mut Recovery,
) -> Result<Vec<f64>, SimError> {
    let n = ctx.n;
    let mut ranks = vec![1.0f64; n];
    // Per-vertex in-/out-neighbour lists (union over machines), built in a
    // single pass over the static edge stores and reused across every
    // Gauss–Seidel round — the graph never changes mid-run, so there is
    // nothing to rebuild per iteration.
    let mut in_nbrs: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    let mut out_nbrs: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    for md in ctx.data {
        for &(u, v) in &md.edges {
            in_nbrs[v as usize].push(u);
            out_nbrs[u as usize].push(v);
        }
    }
    let (tol, max_rounds) = match cfg.stop {
        StopCriterion::Tolerance(t) => (t, 100_000u32),
        StopCriterion::Iterations(k) => (0.0, k),
    };
    let mut rng = Rng::seed_from_u64(ctx.seed);
    // Task-queue execution: recompute a vertex eagerly (Gauss–Seidel); a
    // change above the tolerance signals the vertices that depend on it.
    let mut queue: Vec<VertexId> = (0..n as VertexId).collect();
    let mut queued: Vec<bool> = vec![true; n];
    let mut lock_pool = vec![0u64; ctx.machines]; // unreleased lock records
                                                  // Per-round accumulators, hoisted out of the loop and zeroed per round
                                                  // (the async path runs thousands of rounds on road networks).
    let mut ops = vec![0.0f64; ctx.machines];
    let mut sent = vec![0u64; ctx.machines];
    let mut recv = vec![0u64; ctx.machines];
    let mut msgs = vec![0u64; ctx.machines];
    let mut lock_alloc = vec![0u64; ctx.machines];
    let mut lock_counts = vec![0u64; ctx.machines];
    let mut to_free = vec![0u64; ctx.machines];
    let mut next: Vec<VertexId> = Vec::new();
    let mut round = 0u32;
    while !queue.is_empty() && round < max_rounds {
        // Async scheduling: seeded shuffle of this round's task set.
        rng.shuffle(&mut queue);
        ops.fill(0.0);
        sent.fill(0);
        recv.fill(0);
        msgs.fill(0);
        lock_alloc.fill(0);
        lock_counts.fill(0);
        next.clear();
        let mut updated = 0u64;
        for &v in &queue {
            queued[v as usize] = false;
            let sum: f64 = in_nbrs[v as usize]
                .iter()
                .map(|&u| ranks[u as usize] / ctx.outdeg[u as usize] as f64)
                .sum();
            let new = cfg.damping + (1.0 - cfg.damping) * sum;
            let delta = (new - ranks[v as usize]).abs();
            ranks[v as usize] = new; // eager (Gauss–Seidel) visibility
            let master = ctx.part.master_of(v) as usize;
            let replicas = ctx.part.replicas_of(v);
            let remote = replicas.len().saturating_sub(1) as u64;
            // Lock negotiation: 3 small round trips per remote replica plus
            // a lock record held until the lock service drains it.
            ops[master] += (1 + in_nbrs[v as usize].len() as u64 + 10 * remote) as f64
                * ctx.async_op_penalty();
            for &m in replicas {
                if m as usize != master {
                    sent[master] += 3 * 64;
                    recv[m as usize] += 3 * 64;
                    msgs[master] += 3;
                    lock_alloc[m as usize] += 96;
                    lock_counts[m as usize] += 1;
                }
            }
            if delta >= tol || (tol == 0.0 && round + 1 < max_rounds) {
                updated += 1;
                for &t in &out_nbrs[v as usize] {
                    if !queued[t as usize] {
                        queued[t as usize] = true;
                        next.push(t);
                    }
                }
            }
        }
        // The distributed lock service drains records at a rate inversely
        // proportional to cluster size; the remainder stays resident — the
        // runaway allocation of Figure 10.
        let release_rate = (48.0 / ctx.machines as f64).min(1.0);
        cluster.set_label("async_round");
        cluster.alloc_all(&lock_alloc)?;
        for m in 0..ctx.machines {
            lock_pool[m] += lock_alloc[m];
            let released = (lock_pool[m] as f64 * release_rate) as u64;
            lock_pool[m] -= released;
            to_free[m] = released.min(cluster.mem_in_use(m));
        }
        cluster.advance_compute(&ops, ctx.effective_cores())?;
        cluster.exchange(&sent, &recv, &msgs)?;
        // Lock service: each remote acquisition is a latency-bound round
        // trip through the contended distributed lock manager (§5.3).
        const LOCK_SERVICE_SECS: f64 = 0.5e-6;
        let scale = cluster.spec().work_scale;
        let waits: Vec<f64> =
            lock_counts.iter().map(|&c| c as f64 * LOCK_SERVICE_SECS * scale).collect();
        cluster.set_label("lock_wait");
        cluster.advance_network_wait(&waits)?;
        cluster.free_all(&to_free);
        // No global barrier in async mode; losses surface between rounds.
        recovery.at_barrier(cluster)?;
        cluster.sample_trace();
        updates.push(updated);
        std::mem::swap(&mut queue, &mut next);
        round += 1;
    }
    Ok(ranks)
}

/// Signal-driven minimum-label propagation (WCC). GraphLab sees both ends
/// of every edge, so the gather runs over the undirected view with no
/// reverse-edge discovery pass (§3.2).
fn wcc_propagate(
    cluster: &mut Cluster,
    ctx: &GasCtx<'_>,
    recovery: &mut Recovery,
) -> Result<Vec<VertexId>, SimError> {
    let n = ctx.n;
    let mut label: Vec<VertexId> = (0..n as VertexId).collect();
    // Undirected neighbour lists per machine are implicit in edges; signal
    // set starts as every vertex.
    let mut signaled: Vec<bool> = vec![true; n];
    // Each machine's edge list is carved into chunk tasks
    // (`exec::run_chunks`) that emit (vertex, candidate-label) pairs into
    // pooled per-chunk buckets. Integer min is associative and commutative,
    // so folding candidates in ascending (machine, chunk) order reproduces
    // the serial labels exactly at any thread count and chunk size — and
    // drops the per-machine n-sized `best` copies the serial path kept.
    struct WccTask<'a> {
        edges: &'a [(VertexId, VertexId)],
        /// Pooled across rounds.
        mins: Vec<(VertexId, VertexId)>,
    }
    struct WccChunk {
        ops: u64,
        any: bool,
    }
    // Edge spans are a function of the static edge stores; plan once. The
    // signaled-traffic loop reuses the degree-aware in-index plan.
    let edge_plans: Vec<Vec<(usize, usize)>> =
        ctx.data.iter().map(|md| exec::uniform_spans(md.edges.len(), exec::chunk_size())).collect();
    let traffic_plans: Vec<Vec<(usize, usize, usize)>> =
        ctx.data.iter().map(|md| gather_plan(&md.in_idx, n)).collect();
    let total_edge_spans: usize = edge_plans.iter().map(Vec::len).sum();
    let total_traffic_spans: usize = traffic_plans.iter().map(Vec::len).sum();
    let mut mins_pool: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); total_edge_spans];
    let mut sig_pool: Vec<Vec<VertexId>> = vec![Vec::new(); total_edge_spans];
    let mut best: Vec<VertexId> = vec![0; n];
    let mut ops = vec![0.0f64; ctx.machines];
    let mut sent = vec![0u64; ctx.machines];
    let mut recv = vec![0u64; ctx.machines];
    let mut msgs = vec![0u64; ctx.machines];
    loop {
        cluster.set_label("gather");
        let mut tasks: Vec<WccTask> = Vec::with_capacity(total_edge_spans);
        for (m, md) in ctx.data.iter().enumerate() {
            for &(s, e) in &edge_plans[m] {
                let mut mins = std::mem::take(&mut mins_pool[tasks.len()]);
                mins.clear();
                tasks.push(WccTask { edges: &md.edges[s..e], mins });
            }
        }
        let chunk_steps: Vec<WccChunk> = exec::run_chunks(&mut tasks, |_, t| {
            let mut chunk_ops = 0u64;
            let mut my_any = false;
            for &(u, v) in t.edges {
                let su = signaled[u as usize];
                let sv = signaled[v as usize];
                if !(su || sv) {
                    continue;
                }
                my_any = true;
                chunk_ops += 1;
                // Undirected min exchange: emit candidates, folded below.
                if label[u as usize] < label[v as usize] {
                    t.mins.push((v, label[u as usize]));
                }
                if label[v as usize] < label[u as usize] {
                    t.mins.push((u, label[v as usize]));
                }
            }
            WccChunk { ops: chunk_ops, any: my_any }
        });
        // Partial aggregation traffic for signaled vertices mastered
        // elsewhere: read-only degree-aware spans over the in-index.
        let mut traffic_tasks: Vec<(usize, &[VertexId])> = Vec::with_capacity(total_traffic_spans);
        for (m, md) in ctx.data.iter().enumerate() {
            for &(gs, ge, _) in &traffic_plans[m] {
                traffic_tasks.push((m, &md.in_idx.verts()[gs..ge]));
            }
        }
        let traffic_steps: Vec<(u64, u64, Vec<u64>)> =
            exec::run_chunks(&mut traffic_tasks, |_, &mut (m, verts)| {
                let mut my_sent = 0u64;
                let mut my_msgs = 0u64;
                let mut recv_by = vec![0u64; ctx.machines];
                for &v in verts {
                    if signaled[v as usize] && ctx.part.master_of(v) as usize != m {
                        my_sent += 8;
                        recv_by[ctx.part.master_of(v) as usize] += 8;
                        my_msgs += 1;
                    }
                }
                (my_sent, my_msgs, recv_by)
            });
        let mut any = false;
        recv.fill(0);
        let mut ci = 0usize;
        for m in 0..ctx.machines {
            let mut o = 0u64;
            for _ in &edge_plans[m] {
                let c = &chunk_steps[ci];
                ci += 1;
                o += c.ops;
                any |= c.any;
            }
            ops[m] = o as f64 * ctx.async_op_penalty();
        }
        let mut ti = 0usize;
        for m in 0..ctx.machines {
            let (mut se, mut ms) = (0u64, 0u64);
            for _ in &traffic_plans[m] {
                let (s, g, ref recv_by) = traffic_steps[ti];
                ti += 1;
                se += s;
                ms += g;
                for (j, &b) in recv_by.iter().enumerate() {
                    recv[j] += b;
                }
            }
            sent[m] = se;
            msgs[m] = ms;
        }
        if !any {
            for (k, t) in tasks.into_iter().enumerate() {
                mins_pool[k] = t.mins;
            }
            break;
        }
        best.copy_from_slice(&label);
        for t in &tasks {
            for &(v, l) in &t.mins {
                if l < best[v as usize] {
                    best[v as usize] = l;
                }
            }
        }
        for (k, t) in tasks.into_iter().enumerate() {
            mins_pool[k] = t.mins;
        }
        cluster.set_label("gather");
        cluster.advance_compute(&ops, ctx.effective_cores())?;
        cluster.exchange(&sent, &recv, &msgs)?;
        if cluster.has_observers() {
            // Observability hint only: vertices whose component label will
            // improve when this round's minima are applied.
            let improving = (0..n).filter(|&v| best[v] < label[v]).count() as u64;
            cluster.report_active(improving);
        }
        cluster.set_label("barrier");
        cluster.barrier()?;
        recovery.at_barrier(cluster)?;
        cluster.sample_trace();
        // Apply + scatter: changed vertices signal their neighbours.
        let mut changed: Vec<VertexId> = Vec::new();
        for v in 0..n {
            if best[v] < label[v] {
                label[v] = best[v];
                changed.push(v as VertexId);
            }
        }
        ctx.charge_mirror_sync(cluster, changed.iter().copied())?;
        signaled.fill(false);
        if changed.is_empty() {
            break;
        }
        // Rebuild the signal set: edge-span chunk tasks list the vertices
        // their edges signal into pooled buckets; setting flags is
        // idempotent, so merge order does not matter.
        cluster.set_label("scatter");
        let mut sig_tasks: Vec<(&[(VertexId, VertexId)], Vec<VertexId>)> =
            Vec::with_capacity(total_edge_spans);
        for (m, md) in ctx.data.iter().enumerate() {
            for &(s, e) in &edge_plans[m] {
                let mut sig = std::mem::take(&mut sig_pool[sig_tasks.len()]);
                sig.clear();
                sig_tasks.push((&md.edges[s..e], sig));
            }
        }
        exec::run_chunks(&mut sig_tasks, |_, t| {
            for &(u, v) in t.0 {
                if label[u as usize] < label[v as usize] {
                    t.1.push(v);
                }
                if label[v as usize] < label[u as usize] {
                    t.1.push(u);
                }
            }
        });
        for (k, (_, sig)) in sig_tasks.into_iter().enumerate() {
            for v in &sig {
                signaled[*v as usize] = true;
            }
            sig_pool[k] = sig;
        }
    }
    Ok(label)
}

/// Signal-driven BFS (SSSP / K-hop) over directed in-gathers.
fn traversal(
    cluster: &mut Cluster,
    ctx: &GasCtx<'_>,
    source: VertexId,
    bound: u32,
    recovery: &mut Recovery,
) -> Result<Vec<u32>, SimError> {
    let n = ctx.n;
    let mut dist = vec![UNREACHABLE; n];
    dist[source as usize] = 0;
    let mut frontier: Vec<VertexId> = vec![source];
    // Flat (machine × frontier-span) chunk tasks scan the frozen `dist` and
    // emit improvement lists into pooled buckets; the coordinator applies
    // them first-touch-wins in ascending (machine, chunk) order — exactly
    // the serial machine-major, frontier-order visit sequence — so the
    // distances are identical at any thread count and chunk size.
    struct TravChunk {
        ops: u64,
        sent: u64,
        msgs: u64,
        recv_by: Vec<u64>,
    }
    let mut improved_pool: Vec<Vec<(VertexId, u32)>> = Vec::new();
    let mut ops = vec![0.0f64; ctx.machines];
    let mut sent = vec![0u64; ctx.machines];
    let mut recv = vec![0u64; ctx.machines];
    let mut msgs = vec![0u64; ctx.machines];
    while !frontier.is_empty() {
        // Scatter from the frontier along local out-edges; improvements are
        // applied at target masters.
        cluster.set_label("scatter");
        let frontier_spans = exec::uniform_spans(frontier.len(), exec::chunk_size());
        let total_tasks = ctx.machines * frontier_spans.len();
        while improved_pool.len() < total_tasks {
            improved_pool.push(Vec::new());
        }
        let mut tasks: Vec<(usize, &[VertexId], Vec<(VertexId, u32)>)> =
            Vec::with_capacity(total_tasks);
        for m in 0..ctx.machines {
            for &(s, e) in &frontier_spans {
                let mut improved = std::mem::take(&mut improved_pool[tasks.len()]);
                improved.clear();
                tasks.push((m, &frontier[s..e], improved));
            }
        }
        let steps: Vec<TravChunk> = exec::run_chunks(&mut tasks, |_, task| {
            let (m, span, ref mut improved) = *task;
            let md = &ctx.data[m];
            let mut chunk_ops = 0u64;
            let mut my_sent = 0u64;
            let mut my_msgs = 0u64;
            let mut recv_by = vec![0u64; ctx.machines];
            for &v in span {
                let d = dist[v as usize];
                if d >= bound {
                    continue;
                }
                for &i in md.out_idx.of(v) {
                    let (_, t) = md.edges[i as usize];
                    chunk_ops += 1;
                    if d + 1 < dist[t as usize] {
                        improved.push((t, d + 1));
                        let master = ctx.part.master_of(t) as usize;
                        if master != m {
                            my_sent += 8;
                            recv_by[master] += 8;
                            my_msgs += 1;
                        }
                    }
                }
            }
            TravChunk { ops: chunk_ops, sent: my_sent, msgs: my_msgs, recv_by }
        });
        recv.fill(0);
        let spans_per_machine = frontier_spans.len();
        for m in 0..ctx.machines {
            let (mut o, mut se, mut ms) = (0u64, 0u64, 0u64);
            for step in &steps[m * spans_per_machine..(m + 1) * spans_per_machine] {
                o += step.ops;
                se += step.sent;
                ms += step.msgs;
                for (j, &b) in step.recv_by.iter().enumerate() {
                    recv[j] += b;
                }
            }
            ops[m] = o as f64 * ctx.async_op_penalty();
            sent[m] = se;
            msgs[m] = ms;
        }
        cluster.set_label("scatter");
        cluster.advance_compute(&ops, ctx.effective_cores())?;
        cluster.exchange(&sent, &recv, &msgs)?;
        if ctx.engine.mode == GasMode::Sync {
            cluster.set_label("barrier");
            cluster.barrier()?;
        }
        recovery.at_barrier(cluster)?;
        let mut changed: Vec<VertexId> = Vec::new();
        for (k, (_, _, improved)) in tasks.into_iter().enumerate() {
            for &(t, d) in &improved {
                if d < dist[t as usize] {
                    dist[t as usize] = d;
                    changed.push(t);
                }
            }
            improved_pool[k] = improved;
        }
        ctx.charge_mirror_sync(cluster, changed.iter().copied())?;
        frontier = changed;
    }
    Ok(dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScaleInfo;
    use graphbench_algos::reference;
    use graphbench_gen::{Dataset, DatasetKind, Scale};
    use graphbench_graph::{CsrGraph, EdgeList};
    use graphbench_sim::ClusterSpec;

    fn dataset(kind: DatasetKind) -> (EdgeList, CsrGraph) {
        let d = Dataset::generate(kind, Scale { base: 400 }, 3);
        let g = d.to_csr();
        (d.edges, g)
    }

    fn input<'a>(
        ds: &'a (EdgeList, CsrGraph),
        workload: Workload,
        machines: usize,
        mem: u64,
    ) -> EngineInput<'a> {
        EngineInput {
            edges: &ds.0,
            graph: &ds.1,
            workload,
            cluster: ClusterSpec::r3_xlarge(machines, mem),
            seed: 7,
            scale: ScaleInfo::actual(&ds.0),
        }
    }

    fn pr_tol(tol: f64) -> Workload {
        Workload::PageRank(PageRankConfig {
            stop: StopCriterion::Tolerance(tol),
            ..PageRankConfig::paper_exact()
        })
    }

    #[test]
    fn sync_pagerank_matches_reference_without_self_edges() {
        let ds = dataset(DatasetKind::Twitter);
        let out = GraphLab::sync_random().run(&input(&ds, pr_tol(1e-7), 4, 1 << 30));
        assert!(out.metrics.status.is_ok(), "{:?}", out.metrics.status);
        // Reference on the self-edge-free graph (GraphLab semantics).
        let mut clean = ds.0.clone();
        clean.remove_self_edges();
        let g = CsrGraph::from_edge_list(&clean);
        let (want, _) = reference::pagerank(
            &g,
            &PageRankConfig {
                stop: StopCriterion::Tolerance(1e-7),
                ..PageRankConfig::paper_exact()
            },
        );
        match out.result.unwrap() {
            WorkloadResult::Ranks(r) => {
                for (a, b) in r.iter().zip(&want) {
                    assert!((a - b).abs() < 1e-4, "{a} vs {b}");
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn self_edges_are_dropped_and_noted() {
        let ds = dataset(DatasetKind::Uk0705); // web graph has self-edges
        let out = GraphLab::sync_random().run(&input(&ds, Workload::Wcc, 4, 1 << 30));
        assert!(out.notes.iter().any(|n| n.contains("self-edges")), "{:?}", out.notes);
    }

    #[test]
    fn wcc_matches_reference() {
        let ds = dataset(DatasetKind::Uk0705);
        let out = GraphLab::sync_random().run(&input(&ds, Workload::Wcc, 4, 1 << 30));
        assert!(out.metrics.status.is_ok());
        assert_eq!(out.result.unwrap(), WorkloadResult::Labels(reference::wcc(&ds.1)));
    }

    #[test]
    fn sssp_and_khop_match_reference() {
        let ds = dataset(DatasetKind::Twitter);
        let src = 0;
        let sssp =
            GraphLab::sync_auto().run(&input(&ds, Workload::Sssp { source: src }, 4, 1 << 30));
        // Self-edge removal cannot change distances.
        assert_eq!(sssp.result.unwrap(), WorkloadResult::Distances(reference::sssp(&ds.1, src)));
        let khop = GraphLab::sync_random().run(&input(&ds, Workload::khop3(src), 4, 1 << 30));
        assert_eq!(khop.result.unwrap(), WorkloadResult::Distances(reference::khop(&ds.1, src, 3)));
    }

    #[test]
    fn async_pagerank_converges_to_the_same_fixpoint() {
        let ds = dataset(DatasetKind::Twitter);
        let tol = 1e-7;
        let sync = GraphLab::sync_random().run(&input(&ds, pr_tol(tol), 4, 1 << 30));
        let async_ = GraphLab::async_random().run(&input(&ds, pr_tol(tol), 4, 1 << 30));
        let diff = sync.result.unwrap().max_rank_diff(&async_.result.unwrap());
        assert!(diff < 1e-3, "fixpoint diff {diff}");
    }

    #[test]
    fn async_pagerank_is_slower_than_sync() {
        // The paper's §5.3: distributed locking makes asynchronous PageRank
        // typically slower than its synchronous counterpart.
        let ds = dataset(DatasetKind::Twitter);
        let tol = 1e-6;
        let mut inp = input(&ds, pr_tol(tol), 8, 1 << 30);
        inp.cluster.work_scale = 50_000.0; // paper-scale lock volume
        let sync = GraphLab::sync_random().run(&inp);
        let async_ = GraphLab::async_random().run(&inp);
        assert!(
            async_.metrics.phases.execute > sync.metrics.phases.execute,
            "async exec {} vs sync {}",
            async_.metrics.phases.execute,
            sync.metrics.phases.execute
        );
    }

    #[test]
    fn approximate_pagerank_reduces_updates_over_iterations() {
        let ds = dataset(DatasetKind::Twitter);
        let mut engine = GraphLab::sync_random();
        engine.approximate_pagerank = true;
        let out = engine.run(&input(&ds, pr_tol(0.01), 4, 1 << 30));
        let ups = &out.updates_per_iteration;
        assert!(ups.len() >= 3, "{ups:?}");
        assert!(ups.last().unwrap() < ups.first().unwrap(), "updates should shrink: {ups:?}");
    }

    #[test]
    fn auto_partitioning_loads_faster_when_grid_applies() {
        let ds = dataset(DatasetKind::Uk0705);
        // 16 machines -> Grid (cheap placement); oblivious at 15 machines.
        let grid = GraphLab::sync_auto().run(&input(&ds, Workload::Wcc, 16, 1 << 30));
        let obl = GraphLab::sync_auto().run(&input(&ds, Workload::Wcc, 15, 1 << 30));
        assert!(
            grid.metrics.phases.load < obl.metrics.phases.load,
            "grid load {} vs oblivious load {}",
            grid.metrics.phases.load,
            obl.metrics.phases.load
        );
    }

    #[test]
    fn oom_with_small_budget() {
        let ds = dataset(DatasetKind::Uk0705);
        let out = GraphLab::sync_random().run(&input(&ds, Workload::Wcc, 4, 50_000));
        assert_eq!(out.metrics.status.code(), "OOM");
    }

    #[test]
    fn async_accumulates_lock_memory_on_long_runs_with_many_machines() {
        // A road network's long convergence plus a large cluster grows the
        // unreleased lock-record pool (Figure 10's failure signature).
        let ds = dataset(DatasetKind::Wrn);
        let w = pr_tol(1e-4);
        let small = GraphLab::async_random().run(&input(&ds, w, 8, 1 << 30));
        let large = GraphLab::async_random().run(&input(&ds, w, 96, 1 << 30));
        let small_peak = small.metrics.max_machine_memory();
        let large_peak = large.metrics.max_machine_memory();
        // More machines -> less resident data per machine, yet the lock pool
        // makes the worst machine *worse* relative to its resident share.
        let small_resident = small.trace.samples().first().unwrap().mem_per_machine[0];
        let large_resident = large.trace.samples().first().unwrap().mem_per_machine[0];
        let small_ratio = small_peak as f64 / small_resident.max(1) as f64;
        let large_ratio = large_peak as f64 / large_resident.max(1) as f64;
        assert!(
            large_ratio > small_ratio,
            "lock-memory growth: 8 machines ratio {small_ratio:.2}, 96 machines ratio {large_ratio:.2}"
        );
    }
}
