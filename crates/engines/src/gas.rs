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

use crate::gather::{KHopEnd, Rounds, RunGather};
use crate::recovery::{Recovery, RecoveryModel};
use crate::{even_share, result_bytes, Engine, EngineInput, RunOutput};
use graphbench_algos::workload::{PageRankConfig, StopCriterion};
use graphbench_algos::{Workload, WorkloadResult};
use graphbench_graph::format::GraphFormat;
use graphbench_graph::rng::Rng;
use graphbench_graph::{EdgeList, VertexId};
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

/// Per-machine edge store: the local edges in placement order, and each
/// local destination with its local in-degree.
struct MachineData {
    /// Directed local edges.
    edges: Vec<(VertexId, VertexId)>,
    /// `(destination, local in-edges)` per local destination, first-touch
    /// order: the gather charge and the WCC tally only sum over it.
    in_deg: Vec<(VertexId, u32)>,
}

/// Scatter the edges to their machines, in edge order, and count each
/// machine's local in-degrees in O(local edges): one run-wide slot per vertex
/// holds its list position and is reset through the list, so no machine
/// zeroes an `n`-sized table.
fn machine_data(edges: &EdgeList, part: &VertexCutPartition, n: usize) -> Vec<MachineData> {
    let mut local_edges: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); part.machines()];
    crate::shuffle::par_scatter(
        &edges.edges,
        part.machines(),
        |i, e| (part.machine_of_edge(i) as usize, (e.src, e.dst)),
        &mut local_edges,
    );
    let mut slot = vec![u32::MAX; n];
    (local_edges.into_iter())
        .map(|edges| {
            let mut in_deg: Vec<(VertexId, u32)> = Vec::new();
            for &(_, v) in &edges {
                let s = &mut slot[v as usize];
                if *s == u32::MAX {
                    *s = in_deg.len() as u32;
                    in_deg.push((v, 0));
                }
                in_deg[*s as usize].1 += 1;
            }
            for &(v, _) in &in_deg {
                slot[v as usize] = u32::MAX;
            }
            MachineData { edges, in_deg }
        })
        .collect()
}

/// Every machine's local edges grouped by one endpoint, `key(src, dst)`:
/// `items[off[v]..off[v + 1]]` are `v`'s, each as `item(src, dst,
/// machine)`, machine-major and in placement order within a machine. One
/// counting sort, O(|E| + |V|).
struct Grouped<T> {
    off: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy + Default> Grouped<T> {
    fn build(
        data: &[MachineData],
        n: usize,
        key: impl Fn(VertexId, VertexId) -> VertexId,
        item: impl Fn(VertexId, VertexId, u32) -> T,
    ) -> Grouped<T> {
        let total: usize = data.iter().map(|md| md.edges.len()).sum();
        assert!(total < u32::MAX as usize, "{total} edges overflow the u32 offsets");
        // `off[v]` counts `v`'s edges, then holds the end of its group, and
        // after the backwards placement its start.
        let mut off = vec![0u32; n + 1];
        for &(u, t) in data.iter().flat_map(|md| &md.edges) {
            off[key(u, t) as usize] += 1;
        }
        let mut end = 0;
        for o in &mut off {
            end += *o;
            *o = end;
        }
        let mut items = vec![T::default(); total];
        for (m, md) in data.iter().enumerate().rev() {
            for &(u, t) in md.edges.iter().rev() {
                let k = key(u, t) as usize;
                off[k] -= 1;
                items[off[k] as usize] = item(u, t, m as u32);
            }
        }
        Grouped { off, items }
    }

    fn of(&self, v: VertexId) -> &[T] {
        &self.items[self.off[v as usize] as usize..self.off[v as usize + 1] as usize]
    }
}

/// Each source's local edges as `(target, machine)`.
type OutEdges = Grouped<(VertexId, u32)>;

fn out_edges(data: &[MachineData], n: usize) -> OutEdges {
    Grouped::build(data, n, |u, _| u, |_, t, m| (t, m))
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
    let dataset = input.graph.text_bytes(GraphFormat::Adj);
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

    let data = machine_data(&edges, &part, n);

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
        workload => {
            // `Rounds` builds a gather for PageRank only.
            let mut rounds = Rounds::new(input.graph, workload, false, || unreachable!());
            match workload {
                Workload::Wcc => wcc_propagate(cluster, &ctx, &mut rounds, &mut recovery)?,
                Workload::KHop { k, .. } => {
                    traversal(cluster, &ctx, &mut rounds, k, &mut recovery)?
                }
                _ => traversal(cluster, &ctx, &mut rounds, u32::MAX, &mut recovery)?,
            }
            rounds.into_result()
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
        let traffic = self.mirror_traffic(changed);
        self.charge_traffic(cluster, &traffic)
    }

    /// Per-machine `[sent, recv, msgs]` of a mirror sync for `changed`.
    fn mirror_traffic(&self, changed: impl Iterator<Item = VertexId>) -> [Vec<u64>; 3] {
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
        [sent, recv, msgs]
    }

    fn charge_traffic(
        &self,
        cluster: &mut Cluster,
        traffic: &[Vec<u64>; 3],
    ) -> Result<(), SimError> {
        let [sent, recv, msgs] = traffic;
        cluster.set_label("mirror_sync");
        cluster.exchange(sent, recv, msgs)
    }
}

/// The gather side of one sync PageRank iteration, per machine: the local
/// in-edges of active destinations folded (`ops`), 16 B of transient
/// partial per such destination, and a 12 B partial sent to each one whose
/// master lives elsewhere.
#[cfg_attr(test, derive(Debug, PartialEq))]
struct GatherCharge {
    ops: Vec<f64>,
    transient: Vec<u64>,
    sent: Vec<u64>,
    recv: Vec<u64>,
    msgs: Vec<u64>,
}

/// Folds [`GatherCharge`] over each machine's `in_deg`.
fn gather_charge(ctx: &GasCtx<'_>, active: &[bool]) -> GatherCharge {
    let mut ops = vec![0.0; ctx.machines];
    let [mut transient, mut sent, mut recv, mut msgs] = [(); 4].map(|_| vec![0u64; ctx.machines]);
    for (m, md) in ctx.data.iter().enumerate() {
        let mut gathered = 0u64;
        for &(v, deg) in md.in_deg.iter().filter(|&&(v, _)| active[v as usize]) {
            gathered += u64::from(deg);
            transient[m] += 16;
            let master = ctx.part.master_of(v) as usize;
            if master != m {
                sent[m] += 12;
                recv[master] += 12;
                msgs[m] += 1;
            }
        }
        ops[m] = gathered as f64 * ctx.async_op_penalty();
    }
    GatherCharge { ops, transient, sent, recv, msgs }
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
    // Each destination's in-edge sources, one run per machine in edge
    // order: the per-machine partials and their machine-order merge, folded
    // in one pass (see `RunGather`).
    let mut runs = RunGather::build(n, ctx.machines, |m| ctx.data[m].edges.iter().copied());
    // The gather charge, the mirror sync and the apply (every active vertex,
    // one op at its master) depend only on `active`: counted once, again
    // only after an apply step deactivates a vertex, which exact mode never
    // does.
    let count = |active: &[bool]| {
        let applied = || (0..n as VertexId).filter(|&v| active[v as usize]);
        let mut apply = vec![0.0f64; ctx.machines];
        for v in applied() {
            apply[ctx.part.master_of(v) as usize] += 1.0;
        }
        (gather_charge(ctx, active), ctx.mirror_traffic(applied()), apply)
    };
    let (mut charge, mut sync, mut apply) = count(&active);
    let mut deactivated = false;
    let mut incoming = vec![0.0f64; n];
    for _ in 0..max_iters {
        // Gather: every active destination sums `rank / out-degree` over its
        // in-edges; approximate mode leaves inactive ones at 0.0.
        cluster.set_label("gather");
        if deactivated {
            (charge, sync, apply) = count(&active);
        }
        let deg = |u: usize| u64::from(ctx.outdeg[u]);
        runs.gather(&ranks, deg, cfg.approximate.then_some(&active[..]), &mut incoming);
        cluster.alloc_all(&charge.transient)?;
        cluster.advance_compute(&charge.ops, ctx.effective_cores())?;
        cluster.exchange(&charge.sent, &charge.recv, &charge.msgs)?;
        cluster.free_all(&charge.transient);

        // Apply at masters + scatter new values to mirrors.
        cluster.set_label("apply");
        let mut max_delta = 0.0f64;
        deactivated = false;
        for v in 0..n {
            if !active[v] {
                continue;
            }
            let new = cfg.damping + (1.0 - cfg.damping) * incoming[v];
            let delta = (new - ranks[v]).abs();
            max_delta = max_delta.max(delta);
            ranks[v] = new;
            if cfg.approximate && delta < tol {
                active[v] = false;
                deactivated = true;
            }
        }
        let updated = apply.iter().sum::<f64>() as u64;
        cluster.advance_compute(&apply, ctx.effective_cores())?;
        ctx.charge_traffic(cluster, &sync)?;
        if cluster.has_observers() {
            // Observability hint only: vertices applied this iteration.
            cluster.report_active(updated);
        }
        cluster.set_label("barrier");
        cluster.barrier()?;
        recovery.at_barrier(cluster)?;
        cluster.sample_trace();
        updates.push(updated);
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
    // Per-vertex in-/out-neighbour lists (union over machines, in edge-store
    // order), built once and reused across every Gauss–Seidel round — the
    // graph never changes mid-run, so there is nothing to rebuild per
    // iteration.
    let in_nbrs = Grouped::build(ctx.data, n, |_, v| v, |u, _, _| u);
    let out_nbrs = Grouped::build(ctx.data, n, |u, _| u, |_, v, _| v);
    let (tol, max_rounds) = match cfg.stop {
        StopCriterion::Tolerance(t) => (t, 100_000u32),
        StopCriterion::Iterations(k) => (0.0, k),
    };
    let mut rng = Rng::seed_from_u64(ctx.seed);
    // Task-queue execution: recompute a vertex eagerly (Gauss–Seidel); a
    // change above the tolerance signals the vertices that depend on it.
    let mut queue: Vec<VertexId> = (0..n as VertexId).collect();
    let mut queued: Vec<bool> = vec![true; n];
    // Unreleased lock records.
    let mut lock_pool = vec![0u64; ctx.machines];
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
            let sum: f64 = in_nbrs
                .of(v)
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
            ops[master] +=
                (1 + in_nbrs.of(v).len() as u64 + 10 * remote) as f64 * ctx.async_op_penalty();
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
                for &t in out_nbrs.of(v) {
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
///
/// Every vertex is signaled in the first round, and after that exactly the
/// vertices a neighbour's smaller label reaches: the ones the round's
/// HashMin step improves ([`Rounds::changed`]). Gathering only along edges
/// with a signaled endpoint never changes a label, since an edge between two
/// unsignaled endpoints joins equal labels. So the labels come from the
/// kernel over the whole graph, and the signal set, one mask per round,
/// prices the round. A round that improves no label gathers along no edge,
/// and the run ends before charging it.
fn wcc_propagate(
    cluster: &mut Cluster,
    ctx: &GasCtx<'_>,
    rounds: &mut Rounds<'_>,
    recovery: &mut Recovery,
) -> Result<(), SimError> {
    // The signal mask: set from each round's improved vertices, cleared
    // once they are applied.
    let mut signaled = vec![false; ctx.n];
    loop {
        cluster.set_label("gather");
        rounds.step();
        if rounds.done(KHopEnd::EmptyWave) {
            return Ok(());
        }
        let improved = rounds.changed().unwrap_or_default();
        for &v in improved {
            signaled[v as usize] = true;
        }
        charge_round(cluster, ctx, &wcc_tally(ctx, (rounds.round() > 1).then_some(&signaled)))?;
        if cluster.has_observers() {
            // Observability hint only: vertices whose component label
            // improves this round.
            cluster.report_active(improved.len() as u64);
        }
        cluster.set_label("barrier");
        cluster.barrier()?;
        recovery.at_barrier(cluster)?;
        cluster.sample_trace();
        // Apply: changed vertices sync their mirrors and signal their
        // neighbours for the next round.
        for &v in improved {
            signaled[v as usize] = false;
        }
        ctx.charge_mirror_sync(cluster, improved.iter().copied())?;
    }
}

/// One WCC round's per-machine `[ops, sent, msgs, recv]`: the local edges
/// with a signaled endpoint gather, and each signaled destination mastered
/// elsewhere costs an 8 B partial. `None` signals every vertex (the first
/// round), so every local edge gathers.
fn wcc_tally(ctx: &GasCtx<'_>, signaled: Option<&[bool]>) -> [Vec<u64>; 4] {
    let mut tally = [(); 4].map(|_| vec![0u64; ctx.machines]);
    let [ops, sent, msgs, recv] = &mut tally;
    for (m, md) in ctx.data.iter().enumerate() {
        ops[m] = match signaled {
            None => md.edges.len() as u64,
            Some(s) => {
                md.edges.iter().filter(|&&(u, v)| s[u as usize] | s[v as usize]).count() as u64
            }
        };
        for &(v, _) in &md.in_deg {
            let master = ctx.part.master_of(v) as usize;
            if signaled.is_none_or(|s| s[v as usize]) && master != m {
                sent[m] += 8;
                recv[master] += 8;
                msgs[m] += 1;
            }
        }
    }
    tally
}

/// Charge one WCC or traversal round's `[ops, sent, msgs, recv]`.
fn charge_round(
    cluster: &mut Cluster,
    ctx: &GasCtx<'_>,
    [ops, sent, msgs, recv]: &[Vec<u64>; 4],
) -> Result<(), SimError> {
    let ops: Vec<f64> = ops.iter().map(|&o| o as f64 * ctx.async_op_penalty()).collect();
    cluster.advance_compute(&ops, ctx.effective_cores())?;
    cluster.exchange(sent, recv, msgs)
}

/// Signal-driven BFS (SSSP / K-hop) over directed in-gathers, at most
/// `bound` hops. GraphLab runs while any vertex is signaled, so a K-hop run
/// also charges the round at depth `bound`, which reaches nothing.
fn traversal(
    cluster: &mut Cluster,
    ctx: &GasCtx<'_>,
    rounds: &mut Rounds<'_>,
    bound: u32,
    recovery: &mut Recovery,
) -> Result<(), SimError> {
    let out = out_edges(ctx.data, ctx.n);
    while !rounds.done(KHopEnd::EmptyWave) {
        // Scatter from the frontier along local out-edges; improvements are
        // applied at target masters.
        cluster.set_label("scatter");
        let frontier = rounds.changed().unwrap_or_default();
        charge_round(cluster, ctx, &frontier_charge(ctx, &out, rounds.dist(), frontier, bound))?;
        if ctx.engine.mode == GasMode::Sync {
            cluster.set_label("barrier");
            cluster.barrier()?;
        }
        recovery.at_barrier(cluster)?;
        rounds.step();
        ctx.charge_mirror_sync(cluster, rounds.changed().unwrap_or_default().iter().copied())?;
    }
    Ok(())
}

/// One traversal round's charge: each local out-edge of a frontier vertex
/// under `bound` costs its machine an op, and each improvement over `dist`
/// (the round's, before the wave applies) whose target's master lives
/// elsewhere an 8 B message, as per-machine `[ops, sent, msgs, recv]`. The
/// counts are integer sums, so the frontier's order moves no charge.
fn frontier_charge(
    ctx: &GasCtx<'_>,
    out: &OutEdges,
    dist: &[u32],
    frontier: &[VertexId],
    bound: u32,
) -> [Vec<u64>; 4] {
    let mut tally = [(); 4].map(|_| vec![0u64; ctx.machines]);
    let [ops, sent, msgs, recv] = &mut tally;
    for (v, d) in frontier.iter().map(|&v| (v, dist[v as usize])).filter(|&(_, d)| d < bound) {
        for &(t, m) in out.of(v) {
            let m = m as usize;
            ops[m] += 1;
            if d + 1 < dist[t as usize] {
                let master = ctx.part.master_of(t) as usize;
                if master != m {
                    sent[m] += 8;
                    recv[master] += 8;
                    msgs[m] += 1;
                }
            }
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gather::expand;
    use crate::ScaleInfo;
    use graphbench_algos::{reference, UNREACHABLE};
    use graphbench_gen::{Dataset, DatasetKind, Scale};
    use graphbench_graph::rng::for_each_seed;
    use graphbench_graph::CsrGraph;
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

    /// The dense per-machine index GraphLab built before the in-degree
    /// lists and the run-wide out-index, kept as their reference: an offset
    /// table over global ids, the local edge ids grouped by endpoint in
    /// insertion order, and the endpoints with local edges, ascending.
    struct EdgeIndex {
        off: Vec<u32>,
        ids: Vec<u32>,
        verts: Vec<VertexId>,
    }

    impl EdgeIndex {
        fn build(
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
            let verts =
                (0..n as VertexId).filter(|&v| off[v as usize + 1] > off[v as usize]).collect();
            EdgeIndex { off, ids, verts }
        }

        fn of(&self, v: VertexId) -> &[u32] {
            &self.ids[self.off[v as usize] as usize..self.off[v as usize + 1] as usize]
        }
    }

    /// Each machine's reference `(in_idx, out_idx)`.
    type DenseIndexes = Vec<(EdgeIndex, EdgeIndex)>;

    /// The gather charge over the dense in-indexes.
    fn dense_gather_charge(ctx: &GasCtx<'_>, idx: &DenseIndexes, active: &[bool]) -> GatherCharge {
        let mut c = GatherCharge {
            ops: vec![],
            transient: vec![],
            sent: vec![],
            recv: vec![0; ctx.machines],
            msgs: vec![],
        };
        for (m, (in_idx, _)) in idx.iter().enumerate() {
            let (mut ops, mut partials, mut remote) = (0u64, 0u64, 0u64);
            for &v in in_idx.verts.iter().filter(|&&v| active[v as usize]) {
                ops += in_idx.of(v).len() as u64;
                partials += 1;
                let master = ctx.part.master_of(v) as usize;
                if master != m {
                    remote += 1;
                    c.recv[master] += 12;
                }
            }
            c.ops.push(ops as f64 * ctx.async_op_penalty());
            c.transient.push(partials * 16);
            c.sent.push(remote * 12);
            c.msgs.push(remote);
        }
        c
    }

    /// The WCC round tally over the dense in-indexes.
    fn dense_wcc_tally(ctx: &GasCtx<'_>, idx: &DenseIndexes, signaled: &[bool]) -> [Vec<u64>; 4] {
        let sig = |v: VertexId| signaled[v as usize];
        let mut tally = [(); 4].map(|_| vec![0u64; ctx.machines]);
        let [ops, sent, msgs, recv] = &mut tally;
        for (m, (in_idx, _)) in idx.iter().enumerate() {
            let edges = &ctx.data[m].edges;
            ops[m] = edges.iter().filter(|&&(u, v)| sig(u) || sig(v)).count() as u64;
            for &v in &in_idx.verts {
                let master = ctx.part.master_of(v) as usize;
                if sig(v) && master != m {
                    sent[m] += 8;
                    recv[master] += 8;
                    msgs[m] += 1;
                }
            }
        }
        tally
    }

    /// One traversal round over the dense out-indexes, machine-major:
    /// per-machine `[ops, sent, msgs, recv]` and the improvements in visit
    /// order.
    fn dense_scan(
        ctx: &GasCtx<'_>,
        idx: &DenseIndexes,
        dist: &[u32],
        frontier: &[VertexId],
        bound: u32,
    ) -> ([Vec<u64>; 4], Vec<(VertexId, u32)>) {
        let mut tally = [(); 4].map(|_| vec![0u64; ctx.machines]);
        let [ops, sent, msgs, recv] = &mut tally;
        let mut improved = Vec::new();
        for (m, (_, out_idx)) in idx.iter().enumerate() {
            for &v in frontier.iter().filter(|&&v| dist[v as usize] < bound) {
                let d = dist[v as usize];
                for &i in out_idx.of(v) {
                    let (_, t) = ctx.data[m].edges[i as usize];
                    ops[m] += 1;
                    if d + 1 < dist[t as usize] {
                        improved.push((t, d + 1));
                        let master = ctx.part.master_of(t) as usize;
                        if master != m {
                            sent[m] += 8;
                            recv[master] += 8;
                            msgs[m] += 1;
                        }
                    }
                }
            }
        }
        (tally, improved)
    }

    /// First-touch application of a round's improvements: the changed list.
    fn apply(dist: &mut [u32], improved: impl IntoIterator<Item = (VertexId, u32)>) -> Vec<u32> {
        let mut changed = Vec::new();
        for (t, d) in improved {
            if d < dist[t as usize] {
                dist[t as usize] = d;
                changed.push(t);
            }
        }
        changed
    }

    /// Seeded random edge lists with self-loops and parallel edges (adjacent
    /// repeats and chance collisions), placed at machines {1, 2, 3, 16, 64} ×
    /// chunk {1, 97, 4096}: the in-degree lists hold the dense in-index's
    /// endpoints and group lengths, and the gather charge, the WCC round
    /// tally and every traversal round's per-machine charge
    /// ([`frontier_charge`], with [`expand`] advancing the wave) equal the
    /// dense indexes'. The kernel lists a wave in frontier-scan order over
    /// the out-CSR, the reference in machine-major order, and each side
    /// carries on from its own frontier, so a charge that depended on the
    /// frontier's order would show.
    #[test]
    fn sparse_indexes_charge_like_the_dense_reference() {
        let _guard = crate::exec::TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let engine = GraphLab::sync_random();
        for_each_seed(12, |seed, rng| {
            crate::exec::set_threads(1 + 3 * (seed as usize % 2));
            let n = 1 + rng.below(150);
            let mut el = EdgeList::new(n as u64);
            for _ in 0..rng.below(600) {
                let (u, v) = match (rng.below(8), el.edges.last()) {
                    (0 | 1, Some(e)) => (e.src, e.dst),
                    (2, _) => {
                        let u = rng.below_u32(n as u32);
                        (u, u)
                    }
                    _ => (rng.below_u32(n as u32), rng.below_u32(n as u32)),
                };
                el.push(u, v);
            }
            let active: Vec<bool> = (0..n).map(|_| rng.below(3) > 0).collect();
            let signaled: Vec<bool> = (0..n).map(|_| rng.below(3) == 0).collect();
            let source = rng.below_u32(n as u32);
            for machines in [1, 2, 3, 16, 64] {
                for chunk in [1, 97, 4096] {
                    crate::exec::set_chunk_size(chunk);
                    let case = format!("machines={machines} chunk={chunk}");
                    let part =
                        VertexCutPartition::build(&el, machines, VertexCutStrategy::Random, seed)
                            .unwrap();
                    let data = machine_data(&el, &part, n);
                    let g = CsrGraph::from_edge_list(&el);
                    let idx: DenseIndexes = (data.iter())
                        .map(|md| {
                            let in_idx = EdgeIndex::build(n, &md.edges, |&(_, v)| v);
                            (in_idx, EdgeIndex::build(n, &md.edges, |&(u, _)| u))
                        })
                        .collect();
                    for (md, (in_idx, _)) in data.iter().zip(&idx) {
                        let mut got = md.in_deg.clone();
                        got.sort_unstable();
                        let want: Vec<(VertexId, u32)> =
                            in_idx.verts.iter().map(|&v| (v, in_idx.of(v).len() as u32)).collect();
                        assert_eq!(got, want, "{case}");
                    }
                    let outdeg = vec![1; n];
                    let ctx = GasCtx {
                        engine: &engine,
                        part: &part,
                        data: &data,
                        outdeg: &outdeg,
                        n,
                        machines,
                        cores: 2,
                        seed,
                    };
                    let charge = gather_charge(&ctx, &active);
                    assert_eq!(charge, dense_gather_charge(&ctx, &idx, &active), "{case}");
                    let tally = wcc_tally(&ctx, Some(&signaled));
                    assert_eq!(tally, dense_wcc_tally(&ctx, &idx, &signaled), "{case}");
                    let tally = wcc_tally(&ctx, None);
                    assert_eq!(tally, dense_wcc_tally(&ctx, &idx, &vec![true; n]), "{case}");
                    let out = out_edges(&data, n);
                    for bound in [u32::MAX, 2] {
                        let mut dist = vec![UNREACHABLE; n];
                        dist[source as usize] = 0;
                        let (mut want_dist, mut frontier) = (dist.clone(), vec![source]);
                        let (mut want_frontier, mut next) = (frontier.clone(), Vec::new());
                        let mut depth = 0;
                        while !frontier.is_empty() {
                            let tally = frontier_charge(&ctx, &out, &dist, &frontier, bound);
                            let (want_tally, want_improved) =
                                dense_scan(&ctx, &idx, &want_dist, &want_frontier, bound);
                            assert_eq!(tally, want_tally, "{case} bound={bound}");
                            expand(&g, &mut dist, &frontier, depth, bound, &mut next);
                            std::mem::swap(&mut frontier, &mut next);
                            want_frontier = apply(&mut want_dist, want_improved);
                            assert_eq!(dist, want_dist, "{case} bound={bound}");
                            depth += 1;
                        }
                        assert!(want_frontier.is_empty(), "{case} bound={bound}");
                    }
                }
            }
        });
        crate::exec::set_threads(1);
        crate::exec::set_chunk_size(4096);
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

    /// `(status, supersteps, runtime bits, network bytes, messages)` of a run.
    fn fingerprint(out: &RunOutput) -> (&str, u64, u64, u64, u64) {
        let m = &out.metrics;
        (m.status.code(), m.iterations, out.runtime.to_bits(), m.network_bytes, m.messages)
    }

    #[test]
    fn road_network_runs_pin_the_traversal_and_wcc_charges() {
        // The road network's long diameter runs many frontier and HashMin
        // rounds: the per-round charges of an unbounded traversal and of
        // WCC, summed over every round.
        let ds = dataset(DatasetKind::Wrn);
        let src = (0..ds.1.num_vertices() as VertexId).find(|&v| ds.1.out_degree(v) > 0).unwrap();
        let sssp =
            GraphLab::sync_random().run(&input(&ds, Workload::Sssp { source: src }, 4, 1 << 30));
        assert_eq!(sssp.result, Some(WorkloadResult::Distances(reference::sssp(&ds.1, src))));
        assert_eq!(fingerprint(&sssp), ("OK", 127, 4618742250455763454, 580386, 24353));
        let wcc = GraphLab::sync_random().run(&input(&ds, Workload::Wcc, 4, 1 << 30));
        assert_eq!(wcc.result, Some(WorkloadResult::Labels(reference::wcc(&ds.1))));
        assert_eq!(fingerprint(&wcc), ("OK", 126, 4618812244966574686, 23343990, 888344));
    }

    #[test]
    fn async_road_network_runs_pin_the_barrier_free_charges() {
        // Async mode skips the traversal's barrier and inflates no op at two
        // cores; the road network runs it for over a hundred rounds.
        let ds = dataset(DatasetKind::Wrn);
        let src = (0..ds.1.num_vertices() as VertexId).find(|&v| ds.1.out_degree(v) > 0).unwrap();
        let sssp =
            GraphLab::async_random().run(&input(&ds, Workload::Sssp { source: src }, 4, 1 << 30));
        assert_eq!(sssp.result, Some(WorkloadResult::Distances(reference::sssp(&ds.1, src))));
        assert_eq!(fingerprint(&sssp), ("OK", 0, 4612143568413951650, 580386, 24353));
        let wcc = GraphLab::async_random().run(&input(&ds, Workload::Wcc, 4, 1 << 30));
        assert_eq!(wcc.result, Some(WorkloadResult::Labels(reference::wcc(&ds.1))));
        assert_eq!(fingerprint(&wcc), ("OK", 126, 4618812244966574686, 23343990, 888344));
    }

    #[test]
    fn loop_exits_pin_a_zero_hop_wave_and_a_graph_of_self_loops() {
        // K-hop at k = 0 charges one round that reaches nothing.
        let ds = dataset(DatasetKind::Twitter);
        let k0 = Workload::KHop { source: 0, k: 0 };
        let khop = GraphLab::sync_random().run(&input(&ds, k0, 4, 1 << 30));
        assert_eq!(khop.result, Some(WorkloadResult::Distances(reference::khop(&ds.1, 0, 0))));
        assert_eq!(fingerprint(&khop), ("OK", 1, 4612210625218969743, 224832, 11893));
        // Every edge a self-loop: GraphLab drops them all, so the first WCC
        // round gathers nothing and the run stops before charging it.
        let mut el = EdgeList::new(40);
        for v in (0..40).step_by(3) {
            el.push(v, v);
        }
        let loops = (el.clone(), CsrGraph::from_edge_list(&el));
        let wcc = GraphLab::sync_random().run(&input(&loops, Workload::Wcc, 4, 1 << 30));
        assert_eq!(wcc.result, Some(WorkloadResult::Labels(reference::wcc(&loops.1))));
        assert_eq!(fingerprint(&wcc), ("OK", 0, 4612136387094582235, 57, 0));
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
