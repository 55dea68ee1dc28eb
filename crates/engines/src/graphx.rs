//! GraphX on Spark (§2.5.2).
//!
//! Graph operations compiled onto Spark's RDD machinery. Per iteration the
//! driver schedules fresh stages whose task count is the **partition count**
//! — the paper's central tuning story (§4.4.3, Figure 2, Table 5):
//!
//! * too few partitions under-utilize the cluster's cores;
//! * too many multiply per-task overhead and force HDFS blocks to be read
//!   by several tasks;
//! * partitions land on executors with a bias toward the HDFS client
//!   machine's replicas, so imbalance *grows with cluster size* — at 128
//!   machines one executor can hold 5-6x the mean (Figure 11) and BSP
//!   supersteps wait for that straggler.
//!
//! Fault tolerance is by **RDD lineage**: every iteration appends to the
//! lineage and pins shuffle state in memory. Long-running workloads (WCC on
//! the road network) therefore grow memory without bound and die — the
//! paper's §5.6 — unless checkpointing trades the lineage for HDFS writes
//! (and then times out instead).
//!
//! Host-side data path: the vertex cut over RDD partitions is needed only at
//! load. The load loop that walks every vertex's replica partitions also
//! records, flat, the vertex's distinct executor machines (ascending) and its
//! hash-picked coordinating copy; the partition is dropped before the first
//! iteration and `mirror_sync` walks that table against the cluster's current
//! fragment placement.

use crate::exec;
use crate::recovery::{BarrierEvents, Recovery, RecoveryModel};
use crate::{dataset_bytes, even_share, result_bytes, Engine, EngineInput, RunOutput};
use graphbench_algos::workload::{PageRankConfig, StopCriterion};
use graphbench_algos::{Workload, WorkloadResult, UNREACHABLE};
use graphbench_graph::format::GraphFormat;
use graphbench_graph::rng::splitmix64;
use graphbench_graph::{CsrGraph, VertexId};
use graphbench_partition::{MachineBits, MachineId, VertexCutPartition, VertexCutStrategy};
use graphbench_sim::{Cluster, CostProfile, Phase, SimError};

/// GraphX / Spark configuration.
#[derive(Debug, Clone)]
pub struct GraphX {
    /// Number of RDD partitions. `None` = one per HDFS block (the default
    /// the paper found sub-optimal, §4.4.3).
    pub num_partitions: Option<usize>,
    /// HDFS block size used to derive the default partition count.
    pub hdfs_block_bytes: u64,
    /// Checkpoint the graph every N iterations, truncating the lineage at
    /// the cost of a full HDFS write (GraphFrames-style). `None` = never
    /// (stock GraphX Pregel).
    pub checkpoint_every: Option<u32>,
    /// Fraction of partitions pinned to the HDFS client machine's replicas
    /// (the block-placement locality bias behind Figure 11).
    pub gateway_bias: f64,
    /// Use GraphFrames' hash-to-min WCC instead of plain HashMin (§5.6):
    /// labels additionally pointer-jump through the label graph each
    /// iteration, converging in far fewer rounds on long paths — "we tested
    /// this implementation as well and found that it was competitive with
    /// hash-min in Blogel".
    pub wcc_hash_to_min: bool,
}

impl Default for GraphX {
    fn default() -> Self {
        GraphX {
            num_partitions: None,
            hdfs_block_bytes: 64 << 20,
            checkpoint_every: None,
            gateway_bias: 0.03,
            wcc_hash_to_min: false,
        }
    }
}

impl GraphX {
    /// Partition count for a dataset (Table 5's tuned values are passed via
    /// [`GraphX::num_partitions`]; the default is the HDFS block count).
    pub fn partitions_for(&self, dataset_bytes: u64) -> usize {
        self.num_partitions
            .unwrap_or_else(|| (dataset_bytes.div_ceil(self.hdfs_block_bytes)).max(1) as usize)
    }

    /// Assign partitions to machines: hash placement with a bias toward the
    /// gateway machine whose local HDFS replicas attract tasks.
    pub fn assign_partitions(&self, partitions: usize, machines: usize, seed: u64) -> Vec<usize> {
        (0..partitions)
            .map(|p| {
                let h = splitmix64(p as u64 ^ seed);
                if (h % 10_000) as f64 / 10_000.0 < self.gateway_bias {
                    0 // gateway machine
                } else {
                    (splitmix64(h) % machines as u64) as usize
                }
            })
            .collect()
    }
}

impl Engine for GraphX {
    fn short_name(&self) -> String {
        "S".into()
    }

    fn name(&self) -> String {
        "GraphX (Spark)".into()
    }

    fn run(&self, input: &EngineInput<'_>) -> RunOutput {
        let mut cluster = Cluster::new(input.cluster.clone(), CostProfile::jvm_spark());
        let mut notes = Vec::new();
        let outcome = execute(self, &mut cluster, input, &mut notes);
        crate::util::output_from(cluster, outcome, notes)
    }
}

/// Everything the per-iteration loop needs.
struct SparkCtx {
    /// Use the hash-to-min label-propagation variant for WCC.
    hash_to_min: bool,
    /// `exec_ids[exec_off[v]..exec_off[v + 1]]`: the distinct executor
    /// machines holding a replica partition of `v`, ascending.
    exec_off: Vec<u32>,
    exec_ids: Vec<MachineId>,
    /// The executor coordinating `v`'s mirror sync, hash-selected from its
    /// set (always taking the lowest machine id would pile coordination onto
    /// machine 0).
    coord: Vec<MachineId>,
    /// Partitions per machine.
    slots_per_machine: Vec<u64>,
    /// Directed edges grouped per machine.
    edges_by_machine: Vec<Vec<(VertexId, VertexId)>>,
    machines: usize,
    cores: u32,
    n: usize,
    state_bytes_per_machine: Vec<u64>,
    lineage_per_machine: Vec<u64>,
    checkpoint_every: Option<u32>,
    result_state_bytes: u64,
    /// Lineage-recompute recovery: the rewind point is the last
    /// materialization (checkpoint) or execution start.
    recovery: Recovery,
    /// The driver's per-stage scheduling wait, the same on every machine
    /// and in every stage of a run.
    stage_wait: Vec<f64>,
    /// Pooled per-chunk mirror-sync counters, reused across supersteps.
    sync_pool: Vec<MirrorTraffic>,
}

/// One mirror-sync chunk task's per-machine traffic counters. Pooled on
/// [`SparkCtx::sync_pool`] so no superstep re-allocates them.
struct MirrorTraffic {
    sent: Vec<u64>,
    recv: Vec<u64>,
    msgs: Vec<u64>,
}

impl SparkCtx {
    /// Effective parallelism on machine `m`: limited by both its cores and
    /// the partitions it actually holds (§4.4.3).
    fn slots(&self, m: usize) -> f64 {
        (self.slots_per_machine[m].min(self.cores as u64)).max(1) as f64
    }

    /// Per-iteration Spark overhead: driver scheduling one stage per step
    /// plus per-task launch costs. Stage boundaries are also where executor
    /// loss surfaces: recovery recomputes from lineage, i.e. everything
    /// since the last checkpoint (shuffles are wide dependencies, so a lost
    /// partition drags its whole upstream history along). Returns the
    /// barrier's membership events: on `.crashed` the caller must restore
    /// its state snapshot and re-run the iterations since the
    /// materialization point; on `.resized` it must refresh the snapshot so
    /// a later lineage recomputation replays from the migrated cut.
    fn charge_stage(&mut self, cluster: &mut Cluster) -> Result<BarrierEvents, SimError> {
        cluster.set_label("stage_sched");
        cluster.advance_network_wait(&self.stage_wait)?;
        let events = self.recovery.at_barrier(cluster)?;
        cluster.set_label("barrier");
        cluster.barrier()?;
        Ok(events)
    }

    /// Grow the lineage: each iteration pins the shuffle outputs it
    /// produced (proportional to the vertices that changed), so fast-
    /// converging workloads stay bounded while O(diameter) workloads grow
    /// without limit (§5.6). Returns `true` when this iteration checkpointed
    /// (the caller should refresh its state snapshot to match the new
    /// materialization point).
    fn charge_lineage(
        &mut self,
        cluster: &mut Cluster,
        iteration: u32,
        changed: u64,
    ) -> Result<bool, SimError> {
        if let Some(k) = self.checkpoint_every {
            if k > 0 && (iteration + 1).is_multiple_of(k) {
                // Checkpoint: write the full graph + state to HDFS and
                // truncate the lineage.
                cluster.set_label("checkpoint");
                let bytes = self.result_state_bytes;
                cluster.hdfs_write(&even_share(bytes, self.machines))?;
                cluster.free_all(&self.lineage_per_machine);
                for l in &mut self.lineage_per_machine {
                    *l = 0;
                }
                self.recovery.mark_checkpoint(cluster);
                return Ok(true);
            }
        }
        // Changed-vertex deltas plus fixed per-stage metadata, spread over
        // the machines in proportion to their state share.
        let total_state: u64 = self.state_bytes_per_machine.iter().sum::<u64>().max(1);
        let delta_bytes = changed * 24;
        let grow: Vec<u64> = self
            .state_bytes_per_machine
            .iter()
            .map(|&b| delta_bytes * b / total_state + 2_048)
            .collect();
        cluster.set_label("lineage");
        cluster.alloc_all(&grow)?;
        for (l, g) in self.lineage_per_machine.iter_mut().zip(&grow) {
            *l += g;
        }
        Ok(false)
    }
}

fn execute(
    engine: &GraphX,
    cluster: &mut Cluster,
    input: &EngineInput<'_>,
    notes: &mut Vec<String>,
) -> Result<WorkloadResult, SimError> {
    let machines = cluster.machines();
    let n = input.graph.num_vertices();
    let profile = *cluster.profile();

    cluster.begin_phase(Phase::Overhead);
    cluster.charge_startup()?;

    cluster.begin_phase(Phase::Load);
    let bytes = dataset_bytes(input.edges, GraphFormat::EdgeListFormat);
    let slots = engine.partitions_for(bytes);
    // Reading the same HDFS block from several tasks re-reads it.
    let read_amplification =
        (slots as u64).div_ceil((bytes / engine.hdfs_block_bytes).max(1)).min(4);
    cluster.hdfs_read(&even_share(bytes * read_amplification, machines))?;

    // Vertex-cut over RDD partitions, partitions placed on executors.
    // GraphX's default EdgePartition2D: bounds the replication factor at
    // ~2 sqrt(partitions), like GraphLab's grid but for any partition count.
    let part = VertexCutPartition::build(
        input.edges,
        slots.min(u16::MAX as usize + 1),
        VertexCutStrategy::Grid2D,
        input.seed,
    )
    .expect("grid2d vertex cut cannot fail");
    let machine_of_slot = engine.assign_partitions(part.machines(), machines, input.seed);
    let mut slots_per_machine = vec![0u64; machines];
    for &m in &machine_of_slot {
        slots_per_machine[m] += 1;
    }
    notes.push(format!(
        "partitions: {} over {} machines, max/machine {}, replication factor {:.2}",
        part.machines(),
        machines,
        slots_per_machine.iter().max().unwrap(),
        part.replication_factor()
    ));

    // Shuffle edges into partitions + materialize RDD caches.
    cluster.set_label("shuffle");
    let moved = bytes - bytes / machines as u64;
    cluster.exchange(
        &even_share(moved, machines),
        &even_share(moved, machines),
        &even_share(input.edges.num_edges(), machines),
    )?;
    // Chunk-parallel scatter into per-machine edge lists; order within each
    // machine matches the serial loop, and the resident-byte tally is just
    // each bucket's length.
    let mut edges_by_machine: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); machines];
    crate::shuffle::par_scatter(
        &input.edges.edges,
        machines,
        |i, e| (machine_of_slot[part.machine_of_edge(i) as usize], (e.src, e.dst)),
        &mut edges_by_machine,
    );
    let mut resident = vec![0u64; machines];
    for (m, list) in edges_by_machine.iter().enumerate() {
        resident[m] += list.len() as u64 * profile.bytes_per_edge;
    }
    // One walk over every vertex's replica partitions charges their resident
    // bytes and collects the vertex's executor set for `mirror_sync`.
    assert!(machines <= MachineId::MAX as usize + 1);
    let mut state_bytes_per_machine = vec![0u64; machines];
    let mut exec_off = Vec::with_capacity(n + 1);
    // At most one executor per replica partition; cut to size after the walk.
    let mut exec_ids: Vec<MachineId> = Vec::with_capacity(part.total_replicas() as usize);
    let mut coord = Vec::with_capacity(n);
    let mut executors = MachineBits::new(machines);
    exec_off.push(0u32);
    for v in 0..n as VertexId {
        for &s in part.replicas_of(v) {
            let m = machine_of_slot[s as usize];
            resident[m] += profile.bytes_per_vertex;
            state_bytes_per_machine[m] += 16;
            executors.insert(m);
        }
        let start = exec_ids.len();
        executors.drain(|m| exec_ids.push(m));
        let set = &exec_ids[start..];
        coord.push(match set.len() {
            0 => 0,
            len => set[(splitmix64(v as u64 ^ 0xc0de) % len as u64) as usize],
        });
        exec_off.push(u32::try_from(exec_ids.len()).expect("executor-set offsets are u32"));
    }
    exec_ids.shrink_to_fit();
    // Nothing past the load reads the vertex cut.
    drop(part);
    cluster.set_label("load");
    cluster.alloc_all(&resident)?;
    cluster.sample_trace();

    // Task serialization + launch; one executed stage stands in for
    // `superstep_scale` paper stages on diameter-compressed datasets.
    let tasks: u64 = slots_per_machine.iter().sum();
    let driver = 0.0015 * tasks as f64 * cluster.spec().superstep_scale;
    let mut ctx = SparkCtx {
        hash_to_min: engine.wcc_hash_to_min,
        exec_off,
        exec_ids,
        coord,
        slots_per_machine,
        edges_by_machine,
        machines,
        cores: input.cluster.cores,
        n,
        state_bytes_per_machine,
        lineage_per_machine: vec![0u64; machines],
        checkpoint_every: engine.checkpoint_every,
        result_state_bytes: n as u64 * 16,
        recovery: Recovery::new(cluster, RecoveryModel::LineageRecompute),
        stage_wait: vec![driver; machines],
        sync_pool: Vec::new(),
    };

    cluster.begin_phase(Phase::Execute);
    ctx.recovery = Recovery::new(cluster, RecoveryModel::LineageRecompute);
    let result = match input.workload {
        Workload::PageRank(pr) => {
            WorkloadResult::Ranks(spark_pagerank(cluster, &mut ctx, input, pr)?)
        }
        Workload::Wcc => WorkloadResult::Labels(spark_wcc(cluster, &mut ctx)?),
        Workload::Sssp { source } => {
            WorkloadResult::Distances(spark_traversal(cluster, &mut ctx, source, u32::MAX)?)
        }
        Workload::KHop { source, k } => {
            WorkloadResult::Distances(spark_traversal(cluster, &mut ctx, source, k)?)
        }
    };

    cluster.begin_phase(Phase::Save);
    cluster.hdfs_write(&even_share(result_bytes(n as u64), machines))?;
    Ok(result)
}

/// Charge compute where each machine's wall time is its ops divided by its
/// effective slot parallelism (stragglers emerge from partition imbalance).
fn charge_compute(cluster: &mut Cluster, ctx: &SparkCtx, ops: &[f64]) -> Result<(), SimError> {
    // RDD stages scan whole partitions each iteration, so per-superstep
    // compute scales with the superstep-count compensation.
    let sscale = cluster.spec().superstep_scale;
    let adjusted: Vec<f64> =
        ops.iter().enumerate().map(|(m, &o)| o * sscale / ctx.slots(m)).collect();
    cluster.set_label("superstep");
    cluster.advance_compute(&adjusted, 1)
}

/// Mirror synchronization across machines for changed vertices: the
/// coordinating copy of each exchanges 16 bytes with every other executor in
/// the vertex's set, unless their fragments currently share a physical
/// machine (after a resize they sync through local memory, not the wire).
/// Sets and coordinators are the load-time table; only the fragment placement
/// is read afresh. Chunks of the changed list run in parallel, each with its
/// own pooled counters; the u64 counter sums are order-free, so the exchanged
/// bytes/messages are the same at any chunk x thread combination.
fn mirror_sync(
    cluster: &mut Cluster,
    ctx: &mut SparkCtx,
    changed: &[VertexId],
) -> Result<(), SimError> {
    let machines = ctx.machines;
    let spans = exec::uniform_spans(changed.len(), exec::chunk_size());
    // An empty change list still exchanges (zero) traffic.
    let chunks = spans.len().max(1);
    while ctx.sync_pool.len() < chunks {
        ctx.sync_pool.push(MirrorTraffic {
            sent: vec![0; machines],
            recv: vec![0; machines],
            msgs: vec![0; machines],
        });
    }
    let pool = &mut ctx.sync_pool[..chunks];
    for t in pool.iter_mut() {
        t.sent.fill(0);
        t.recv.fill(0);
        t.msgs.fill(0);
    }
    // Label before the host work so its wallclock spans attribute to the
    // shuffle (the exchange below is charged under the same label).
    cluster.set_label("shuffle");
    let frag_map = cluster.frag_map();
    let (exec_off, exec_ids, coord) = (&ctx.exec_off, &ctx.exec_ids, &ctx.coord);
    let mut tasks: Vec<(&[VertexId], &mut MirrorTraffic)> =
        spans.iter().zip(pool.iter_mut()).map(|(&(s, e), t)| (&changed[s..e], t)).collect();
    exec::run_chunks(&mut tasks, |_, (span, t)| {
        for &v in *span {
            let v = v as usize;
            let master = coord[v] as usize;
            for &m in &exec_ids[exec_off[v] as usize..exec_off[v + 1] as usize] {
                if frag_map[m as usize] != frag_map[master] {
                    t.sent[master] += 16;
                    t.recv[m as usize] += 16;
                    t.msgs[master] += 1;
                }
            }
        }
    });
    drop(tasks);
    let (total, rest) = pool.split_first_mut().expect("at least one chunk");
    for t in rest {
        for m in 0..machines {
            total.sent[m] += t.sent[m];
            total.recv[m] += t.recv[m];
            total.msgs[m] += t.msgs[m];
        }
    }
    cluster.exchange(&total.sent, &total.recv, &total.msgs)
}

/// Gather-side state for the PageRank dataflow join, built once per run
/// (the edge partitions are static): per-machine destination-keyed edge
/// indexes — per-destination contributions keep edge-arrival order, so the
/// f64 folds match the serial partition scan bit for bit — the degree-aware
/// chunk plans over them, and the pooled dense partial-sum arrays that a
/// fresh `vec![0.0; n]` per machine per iteration used to allocate. `srcs`
/// holds each machine's edge sources in the index's by-destination order, so
/// the gather streams one array instead of chasing edge ids, and `contrib`
/// is the per-iteration `rank / out-degree` of every vertex: one division
/// per source rather than one per edge, the same IEEE quotient either way.
struct PrGather {
    idx: Vec<crate::gas::EdgeIndex>,
    srcs: Vec<Vec<VertexId>>,
    plans: Vec<Vec<(usize, usize, usize)>>,
    parts: Vec<Vec<f64>>,
    contrib: Vec<f64>,
}

impl PrGather {
    fn build(ctx: &SparkCtx) -> PrGather {
        let idx: Vec<crate::gas::EdgeIndex> = ctx
            .edges_by_machine
            .iter()
            .map(|edges| crate::gas::EdgeIndex::build(ctx.n, edges, |&(_, dst)| dst))
            .collect();
        let srcs = idx
            .iter()
            .zip(&ctx.edges_by_machine)
            .map(|(ix, edges)| {
                let by_dst = ix.verts().iter().flat_map(|&v| ix.of(v));
                by_dst.map(|&e| edges[e as usize].0).collect()
            })
            .collect();
        let plans = idx.iter().map(|i| crate::gas::gather_plan(i, ctx.n)).collect();
        let parts = vec![vec![0.0f64; ctx.n]; ctx.machines];
        PrGather { idx, srcs, plans, parts, contrib: vec![0.0f64; ctx.n] }
    }
}

/// One PageRank dataflow iteration over the edge partitions. Chunk tasks
/// each own a destination window of their machine's pooled dense partial
/// array, so every destination's f64 sum folds entirely within one task in
/// edge-arrival order; the per-machine partials then fold into `incoming`
/// in machine-index order exactly as the serial path did. The ranks are
/// bit-identical at any chunk x thread combination. Shared by the live
/// loop and lineage-recompute replay (which discards `ops`). Returns the
/// largest per-vertex rank change.
fn pagerank_step(
    ctx: &SparkCtx,
    g: &CsrGraph,
    cfg: &PageRankConfig,
    ranks: &mut [f64],
    incoming: &mut [f64],
    ops: &mut [f64],
    pg: &mut PrGather,
) -> f64 {
    let edges_by_machine = &ctx.edges_by_machine;
    // A vertex without out-edges is nobody's source; its quotient is unread.
    for (u, (c, r)) in pg.contrib.iter_mut().zip(ranks.iter()).enumerate() {
        *c = r / g.out_degree(u as VertexId) as f64;
    }
    let contrib = &pg.contrib;
    struct GatherTask<'t> {
        machine: usize,
        verts: &'t [VertexId],
        base: usize,
        window: &'t mut [f64],
    }
    let mut tasks: Vec<GatherTask<'_>> = Vec::new();
    for (m, part) in pg.parts.iter_mut().enumerate() {
        let mut rest: &mut [f64] = part;
        let mut base = 0usize;
        for &(gs, ge, wend) in &pg.plans[m] {
            let (window, tail) = rest.split_at_mut(wend - base);
            tasks.push(GatherTask { machine: m, verts: &pg.idx[m].verts()[gs..ge], base, window });
            rest = tail;
            base = wend;
        }
    }
    let (idx, srcs) = (&pg.idx, &pg.srcs);
    exec::run_chunks(&mut tasks, |_, t| {
        t.window.fill(0.0);
        let (ix, srcs) = (&idx[t.machine], &srcs[t.machine]);
        for &v in t.verts {
            let mut sum = 0.0f64;
            for &u in &srcs[ix.range(v)] {
                sum += contrib[u as usize];
            }
            t.window[v as usize - t.base] = sum;
        }
    });
    drop(tasks);
    incoming.fill(0.0);
    for (m, part) in pg.parts.iter().enumerate() {
        ops[m] = edges_by_machine[m].len() as f64;
        for (acc, p) in incoming.iter_mut().zip(part) {
            *acc += p;
        }
    }
    crate::util::pagerank_apply(ranks, incoming, cfg.damping)
}

fn spark_pagerank(
    cluster: &mut Cluster,
    ctx: &mut SparkCtx,
    input: &EngineInput<'_>,
    cfg: PageRankConfig,
) -> Result<Vec<f64>, SimError> {
    let n = ctx.n;
    let g = input.graph;
    let mut ranks = vec![1.0f64; n];
    let mut incoming = vec![0.0f64; n];
    let (tol, max_iters) = match cfg.stop {
        StopCriterion::Tolerance(t) => (t, u32::MAX),
        StopCriterion::Iterations(k) => (0.0, k),
    };
    // Materialized state backing lineage recompute: the ranks at the last
    // checkpoint (or the initial RDD), captured only when a crash is
    // actually scheduled.
    let mut snapshot: Option<(u32, Vec<f64>)> =
        cluster.plan_has_crashes().then(|| (0, ranks.clone()));
    let mut ops = vec![0.0f64; ctx.machines];
    let mut pg = PrGather::build(ctx);
    // Every rank moves every iteration.
    let all_vertices: Vec<VertexId> = (0..n as VertexId).collect();
    let mut iter = 0u32;
    loop {
        if iter >= max_iters {
            break;
        }
        let stage_events = ctx.charge_stage(cluster)?;
        if stage_events.crashed {
            // Lost partitions recompute from lineage: rewind to the last
            // materialization and re-run the iterations since, uncharged —
            // the recovery stall already billed them.
            if let Some((snap_iter, snap_ranks)) = &snapshot {
                ranks.clone_from(snap_ranks);
                for _ in *snap_iter..iter {
                    pagerank_step(ctx, g, &cfg, &mut ranks, &mut incoming, &mut ops, &mut pg);
                }
            }
        }
        if stage_events.resized {
            // The resize migrated the live RDD partitions: re-materialize so
            // a later lineage recomputation replays from the migrated cut.
            if let Some(s) = snapshot.as_mut() {
                *s = (iter, ranks.clone());
            }
        }
        // Label before the host work so its wallclock spans carry it
        // (charge_compute sets the same label before the charge itself).
        cluster.set_label("superstep");
        let max_delta = pagerank_step(ctx, g, &cfg, &mut ranks, &mut incoming, &mut ops, &mut pg);
        charge_compute(cluster, ctx, &ops)?;
        mirror_sync(cluster, ctx, &all_vertices)?;
        if ctx.charge_lineage(cluster, iter, n as u64)? {
            if let Some(s) = snapshot.as_mut() {
                *s = (iter + 1, ranks.clone());
            }
        }
        cluster.sample_trace();
        iter += 1;
        if tol > 0.0 && max_delta < tol {
            break;
        }
    }
    Ok(ranks)
}

/// Pooled chunk scratch for the WCC join, built once per run: uniform edge
/// spans per machine (the partitions are static), per-task candidate
/// buckets, and the reused `next` label vector that a `label.clone()` per
/// iteration used to allocate.
struct WccScratch {
    spans: Vec<Vec<(usize, usize)>>,
    buckets: Vec<Vec<(VertexId, VertexId)>>,
    next: Vec<VertexId>,
}

impl WccScratch {
    fn build(ctx: &SparkCtx) -> WccScratch {
        let spans: Vec<Vec<(usize, usize)>> = ctx
            .edges_by_machine
            .iter()
            .map(|e| exec::uniform_spans(e.len(), exec::chunk_size()))
            .collect();
        let tasks = spans.iter().map(|s| s.len()).sum();
        WccScratch { spans, buckets: vec![Vec::new(); tasks], next: Vec::new() }
    }
}

/// One WCC label-propagation iteration. Chunk tasks scan disjoint edge
/// spans and emit `(vertex, smaller label)` candidates into pooled buckets;
/// integer min is order-free, so folding the buckets in fixed task order
/// reproduces the serial min-merge exactly — without the per-machine full
/// label copies the previous version cloned each iteration. Fills `changed`
/// with the vertices whose label shrank. Shared by the live loop and replay.
fn wcc_step(
    ctx: &SparkCtx,
    label: &mut Vec<VertexId>,
    ops: &mut [f64],
    changed: &mut Vec<VertexId>,
    ws: &mut WccScratch,
) {
    let n = label.len();
    let edges_by_machine = &ctx.edges_by_machine;
    let label_r: &[VertexId] = label;
    let mut tasks: Vec<(usize, (usize, usize), &mut Vec<(VertexId, VertexId)>)> = Vec::new();
    {
        let mut pool = ws.buckets.iter_mut();
        for (m, spans) in ws.spans.iter().enumerate() {
            for &(s, e) in spans {
                tasks.push((m, (s, e), pool.next().expect("bucket pool sized to task count")));
            }
        }
    }
    exec::run_chunks(&mut tasks, |_, t| {
        let (m, (s, e), ref mut bucket) = *t;
        bucket.clear();
        for &(u, v) in &edges_by_machine[m][s..e] {
            if label_r[u as usize] < label_r[v as usize] {
                bucket.push((v, label_r[u as usize]));
            }
            if label_r[v as usize] < label_r[u as usize] {
                bucket.push((u, label_r[v as usize]));
            }
        }
    });
    ws.next.clear();
    ws.next.extend_from_slice(label_r);
    let next = &mut ws.next;
    for (m, o) in ops.iter_mut().enumerate() {
        *o = edges_by_machine[m].len() as f64;
    }
    for (_, _, bucket) in &tasks {
        for &(v, l) in bucket.iter() {
            if l < next[v as usize] {
                next[v as usize] = l;
            }
        }
    }
    drop(tasks);
    if ctx.hash_to_min {
        // hash-to-min's shortcutting: labels are vertex ids, so every
        // vertex can also adopt its label's label (pointer jumping),
        // collapsing long chains in O(log d) rounds.
        for v in 0..n {
            let l = next[v] as usize;
            if next[l] < next[v] {
                next[v] = next[l];
            }
        }
        for o in ops.iter_mut() {
            *o += (n / ctx.machines) as f64;
        }
    }
    changed.clear();
    changed.extend((0..n as VertexId).filter(|&v| next[v as usize] < label[v as usize]));
    std::mem::swap(label, next);
}

fn spark_wcc(cluster: &mut Cluster, ctx: &mut SparkCtx) -> Result<Vec<VertexId>, SimError> {
    let n = ctx.n;
    let mut label: Vec<VertexId> = (0..n as VertexId).collect();
    let mut snapshot: Option<(u32, Vec<VertexId>)> =
        cluster.plan_has_crashes().then(|| (0, label.clone()));
    let mut ops = vec![0.0f64; ctx.machines];
    let mut changed: Vec<VertexId> = Vec::new();
    let mut ws = WccScratch::build(ctx);
    let mut iter = 0u32;
    loop {
        let stage_events = ctx.charge_stage(cluster)?;
        if stage_events.crashed {
            if let Some((snap_iter, snap_label)) = &snapshot {
                label.clone_from(snap_label);
                for _ in *snap_iter..iter {
                    wcc_step(ctx, &mut label, &mut ops, &mut changed, &mut ws);
                }
            }
        }
        if stage_events.resized {
            if let Some(s) = snapshot.as_mut() {
                *s = (iter, label.clone());
            }
        }
        cluster.set_label("superstep");
        wcc_step(ctx, &mut label, &mut ops, &mut changed, &mut ws);
        charge_compute(cluster, ctx, &ops)?;
        mirror_sync(cluster, ctx, &changed)?;
        if ctx.charge_lineage(cluster, iter, changed.len() as u64)? {
            if let Some(s) = snapshot.as_mut() {
                *s = (iter + 1, label.clone());
            }
        }
        cluster.sample_trace();
        iter += 1;
        if changed.is_empty() {
            break;
        }
    }
    Ok(label)
}

/// Pooled chunk scratch for the traversal join: uniform edge spans per
/// machine plus per-task improvement buckets, reused across supersteps.
struct TravScratch {
    spans: Vec<Vec<(usize, usize)>>,
    buckets: Vec<Vec<(VertexId, u32)>>,
}

impl TravScratch {
    fn build(ctx: &SparkCtx) -> TravScratch {
        let spans: Vec<Vec<(usize, usize)>> = ctx
            .edges_by_machine
            .iter()
            .map(|e| exec::uniform_spans(e.len(), exec::chunk_size()))
            .collect();
        let tasks = spans.iter().map(|s| s.len()).sum();
        TravScratch { spans, buckets: vec![Vec::new(); tasks] }
    }
}

/// One traversal (SSSP / K-hop) iteration. mapReduceTriplets with an
/// active-set filter still scans each partition's edges to test activity.
/// Chunk tasks scan disjoint edge spans against the frozen frontier into
/// pooled improvement buckets; applying the buckets in fixed task order
/// replays the serial path's first-touch sequence exactly. Replaces
/// `frontier` with the newly-improved vertices. Shared by the live loop
/// and replay.
fn traversal_step(
    ctx: &SparkCtx,
    bound: u32,
    dist: &mut [u32],
    active: &mut [bool],
    frontier: &mut Vec<VertexId>,
    ops: &mut [f64],
    ts: &mut TravScratch,
) {
    let edges_by_machine = &ctx.edges_by_machine;
    let (dist_r, active_r) = (&*dist, &*active);
    let mut tasks: Vec<(usize, (usize, usize), &mut Vec<(VertexId, u32)>)> = Vec::new();
    {
        let mut pool = ts.buckets.iter_mut();
        for (m, spans) in ts.spans.iter().enumerate() {
            for &(s, e) in spans {
                tasks.push((m, (s, e), pool.next().expect("bucket pool sized to task count")));
            }
        }
    }
    exec::run_chunks(&mut tasks, |_, t| {
        let (m, (s, e), ref mut improved) = *t;
        improved.clear();
        for &(u, v) in &edges_by_machine[m][s..e] {
            if active_r[u as usize] {
                let d = dist_r[u as usize];
                if d < bound && d + 1 < dist_r[v as usize] {
                    improved.push((v, d + 1));
                }
            }
        }
    });
    for (m, o) in ops.iter_mut().enumerate() {
        // Filtered scan is cheap per edge; every edge is still tested.
        *o = edges_by_machine[m].len() as f64 / 4.0;
    }
    for v in frontier.iter() {
        active[*v as usize] = false;
    }
    let mut changed = Vec::new();
    for (_, _, improved) in &tasks {
        for &(v, d) in improved.iter() {
            if d < dist[v as usize] {
                dist[v as usize] = d;
                active[v as usize] = true;
                changed.push(v);
            }
        }
    }
    *frontier = changed;
}

fn spark_traversal(
    cluster: &mut Cluster,
    ctx: &mut SparkCtx,
    source: VertexId,
    bound: u32,
) -> Result<Vec<u32>, SimError> {
    let n = ctx.n;
    let mut dist = vec![UNREACHABLE; n];
    dist[source as usize] = 0;
    let mut frontier = vec![source];
    let mut active = vec![false; n];
    active[source as usize] = true;
    let mut snapshot: Option<(u32, Vec<u32>, Vec<bool>, Vec<VertexId>)> =
        cluster.plan_has_crashes().then(|| (0, dist.clone(), active.clone(), frontier.clone()));
    let mut ops = vec![0.0f64; ctx.machines];
    let mut ts = TravScratch::build(ctx);
    let mut iter = 0u32;
    while !frontier.is_empty() {
        let stage_events = ctx.charge_stage(cluster)?;
        if stage_events.crashed {
            if let Some((snap_iter, s_dist, s_active, s_frontier)) = &snapshot {
                dist.clone_from(s_dist);
                active.clone_from(s_active);
                frontier.clone_from(s_frontier);
                for _ in *snap_iter..iter {
                    traversal_step(
                        ctx,
                        bound,
                        &mut dist,
                        &mut active,
                        &mut frontier,
                        &mut ops,
                        &mut ts,
                    );
                }
            }
        }
        if stage_events.resized {
            if let Some(s) = snapshot.as_mut() {
                *s = (iter, dist.clone(), active.clone(), frontier.clone());
            }
        }
        cluster.set_label("superstep");
        traversal_step(ctx, bound, &mut dist, &mut active, &mut frontier, &mut ops, &mut ts);
        charge_compute(cluster, ctx, &ops)?;
        mirror_sync(cluster, ctx, &frontier)?;
        if ctx.charge_lineage(cluster, iter, frontier.len() as u64)? {
            if let Some(s) = snapshot.as_mut() {
                *s = (iter + 1, dist.clone(), active.clone(), frontier.clone());
            }
        }
        cluster.sample_trace();
        iter += 1;
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

    fn gx(parts: usize) -> GraphX {
        GraphX { num_partitions: Some(parts), ..GraphX::default() }
    }

    #[test]
    fn graphx_results_match_reference() {
        let ds = dataset(DatasetKind::Twitter);
        let pr = PageRankConfig {
            stop: StopCriterion::Tolerance(0.01),
            ..PageRankConfig::paper_exact()
        };
        let out = gx(16).run(&input(&ds, Workload::PageRank(pr), 4, 1 << 30));
        assert!(out.metrics.status.is_ok(), "{:?}", out.metrics.status);
        let (want, _) = reference::pagerank(&ds.1, &pr);
        match out.result.unwrap() {
            WorkloadResult::Ranks(r) => {
                for (a, b) in r.iter().zip(&want) {
                    assert!((a - b).abs() < 1e-9);
                }
            }
            other => panic!("{other:?}"),
        }
        let wcc = gx(16).run(&input(&ds, Workload::Wcc, 4, 1 << 30));
        assert_eq!(wcc.result.unwrap(), WorkloadResult::Labels(reference::wcc(&ds.1)));
        let sssp = gx(16).run(&input(&ds, Workload::Sssp { source: 0 }, 4, 1 << 30));
        assert_eq!(sssp.result.unwrap(), WorkloadResult::Distances(reference::sssp(&ds.1, 0)));
        let khop = gx(16).run(&input(&ds, Workload::khop3(0), 4, 1 << 30));
        assert_eq!(khop.result.unwrap(), WorkloadResult::Distances(reference::khop(&ds.1, 0, 3)));
    }

    #[test]
    fn hash_to_min_converges_faster_with_the_same_answer() {
        // A road network's long chains are HashMin's worst case; the
        // hash-to-min variant shortcuts them (§5.6).
        let ds = dataset(DatasetKind::Wrn);
        let plain = gx(32).run(&input(&ds, Workload::Wcc, 4, 1 << 30));
        let h2m = GraphX { num_partitions: Some(32), wcc_hash_to_min: true, ..GraphX::default() }
            .run(&input(&ds, Workload::Wcc, 4, 1 << 30));
        assert!(plain.metrics.status.is_ok() && h2m.metrics.status.is_ok());
        assert_eq!(plain.result, h2m.result);
        assert_eq!(h2m.result.as_ref().unwrap(), &WorkloadResult::Labels(reference::wcc(&ds.1)));
        assert!(
            h2m.metrics.iterations * 3 < plain.metrics.iterations,
            "hash-to-min {} vs hashmin {} iterations",
            h2m.metrics.iterations,
            plain.metrics.iterations
        );
    }

    #[test]
    fn partition_imbalance_grows_with_cluster_size() {
        use graphbench_partition::metrics::imbalance;
        let engine = GraphX::default();
        let small = engine.assign_partitions(1200, 16, 1);
        let large = engine.assign_partitions(1200, 128, 1);
        let count = |assign: &[usize], machines: usize| -> Vec<u64> {
            let mut c = vec![0u64; machines];
            for &m in assign {
                c[m] += 1;
            }
            c
        };
        let small_imb = imbalance(&count(&small, 16));
        let large_imb = imbalance(&count(&large, 128));
        assert!(
            large_imb > 2.0 * small_imb,
            "imbalance should grow with machines: 16 -> {small_imb:.2}, 128 -> {large_imb:.2}"
        );
        // Figure 11's signature: the gateway machine hoards partitions.
        let c = count(&large, 128);
        assert!(c[0] as f64 > 3.0 * (1200.0 / 128.0), "gateway load {}", c[0]);
    }

    #[test]
    fn lineage_grows_until_oom_on_long_workloads() {
        // WCC on a road network runs for O(diameter) iterations; with a
        // budget sized for the graph but not for an unbounded lineage the
        // run must die of OOM (§5.6).
        let ds = dataset(DatasetKind::Wrn);
        let out = gx(32).run(&input(&ds, Workload::Wcc, 4, 1300 << 10));
        assert_eq!(out.metrics.status.code(), "OOM", "{:?}", out.metrics.status);
        // The same budget easily finishes K-hop (4 iterations).
        let khop = gx(32).run(&input(&ds, Workload::khop3(0), 4, 1300 << 10));
        assert!(khop.metrics.status.is_ok(), "{:?}", khop.metrics.status);
    }

    #[test]
    fn checkpointing_trades_memory_for_io() {
        let ds = dataset(DatasetKind::Wrn);
        let plain = gx(32).run(&input(&ds, Workload::Wcc, 4, 1 << 30));
        let ckpt =
            GraphX { num_partitions: Some(32), checkpoint_every: Some(2), ..GraphX::default() }
                .run(&input(&ds, Workload::Wcc, 4, 1 << 30));
        assert!(plain.metrics.status.is_ok());
        assert!(ckpt.metrics.status.is_ok());
        assert!(
            ckpt.metrics.max_machine_memory() < plain.metrics.max_machine_memory(),
            "checkpointing should bound memory: {} vs {}",
            ckpt.metrics.max_machine_memory(),
            plain.metrics.max_machine_memory()
        );
        assert!(
            ckpt.metrics.phases.execute > plain.metrics.phases.execute,
            "checkpointing should cost time: {} vs {}",
            ckpt.metrics.phases.execute,
            plain.metrics.phases.execute
        );
    }

    #[test]
    fn lineage_recompute_reproduces_fault_free_results() {
        use graphbench_sim::FaultPlan;
        let ds = dataset(DatasetKind::Twitter);
        let w = Workload::PageRank(PageRankConfig::fixed(10));
        let clean = gx(16).run(&input(&ds, w, 4, 1 << 30));
        assert!(clean.metrics.status.is_ok());
        // Kill an executor halfway through execution; the lost partitions
        // recompute from lineage and the answer must not change.
        let p = &clean.metrics.phases;
        let mid_execute = p.overhead + p.load + 0.5 * p.execute;
        let mut inp = input(&ds, w, 4, 1 << 30);
        inp.cluster.faults = FaultPlan::single(mid_execute, 1);
        let faulted = gx(16).run(&inp);
        assert!(faulted.metrics.status.is_ok(), "{:?}", faulted.metrics.status);
        assert_eq!(clean.result, faulted.result);
        assert!(faulted.metrics.phases.execute > clean.metrics.phases.execute);
        assert!(faulted.journal.events().iter().any(|e| e.label == "recovery"));
    }

    /// Per-iteration changed sets of the two message-driven workloads,
    /// from first principles: synchronous HashMin label shrinks (with the
    /// final empty round the engine also syncs) and BFS levels `1..=k`
    /// (plus the empty round past the bound).
    fn changed_sets(el: &EdgeList, w: Workload) -> Vec<Vec<VertexId>> {
        let n = el.num_vertices as usize;
        let mut rounds = Vec::new();
        match w {
            Workload::Wcc => {
                let mut label: Vec<VertexId> = (0..n as VertexId).collect();
                loop {
                    let mut next = label.clone();
                    for e in &el.edges {
                        let (u, v) = (e.src as usize, e.dst as usize);
                        next[v] = next[v].min(label[u]);
                        next[u] = next[u].min(label[v]);
                    }
                    let changed: Vec<VertexId> = (0..n as VertexId)
                        .filter(|&v| next[v as usize] < label[v as usize])
                        .collect();
                    let done = changed.is_empty();
                    rounds.push(changed);
                    label = next;
                    if done {
                        break;
                    }
                }
            }
            Workload::KHop { source, k } => {
                let mut dist = vec![UNREACHABLE; n];
                dist[source as usize] = 0;
                for d in 0.. {
                    let mut level = Vec::new();
                    for e in &el.edges {
                        if d < k && dist[e.src as usize] == d && dist[e.dst as usize] == UNREACHABLE
                        {
                            dist[e.dst as usize] = d + 1;
                            level.push(e.dst);
                        }
                    }
                    let done = level.is_empty();
                    rounds.push(level);
                    if done {
                        break;
                    }
                }
            }
            other => panic!("{other:?}"),
        }
        rounds
    }

    /// The algorithm `mirror_sync` ran before the load-time table: per
    /// changed vertex, collect the executors of its replica partitions,
    /// deduplicate, sort, hash-pick the coordinating copy, and count one
    /// 16-byte message per executor on another physical machine. Returns
    /// the journal's `(net_bytes, messages)` of the exchange at the default
    /// 16-byte framing and `work_scale` 1.
    fn naive_sync(
        part: &VertexCutPartition,
        machine_of_slot: &[usize],
        frag_map: &[usize],
        changed: &[VertexId],
    ) -> (u64, u64) {
        let (mut sent, mut msgs) = (0u64, 0u64);
        for &v in changed {
            let mut ms: Vec<usize> = Vec::new();
            for &s in part.replicas_of(v) {
                let m = machine_of_slot[s as usize];
                if !ms.contains(&m) {
                    ms.push(m);
                }
            }
            if ms.len() > 1 {
                ms.sort_unstable();
                let master = ms[(splitmix64(v as u64 ^ 0xc0de) % ms.len() as u64) as usize];
                for &m in &ms {
                    if frag_map[m] != frag_map[master] {
                        sent += 16;
                        msgs += 1;
                    }
                }
            }
        }
        (sent + 16 * msgs, msgs)
    }

    /// `(net_bytes, messages)` of every execute-phase mirror sync of a run,
    /// with the number of migrations journaled before it.
    fn sync_events(out: &RunOutput) -> Vec<(usize, (u64, u64))> {
        use graphbench_sim::{EventKind, Phase};
        let mut migrations = 0;
        let mut syncs = Vec::new();
        let mut in_migration = false;
        for e in out.journal.events() {
            let migrating = e.label == "migrate";
            if migrating && !in_migration {
                migrations += 1;
            }
            in_migration = migrating;
            if e.phase == Phase::Execute && e.label == "shuffle" && e.kind == EventKind::Network {
                syncs.push((migrations, (e.net_bytes, e.messages)));
            }
        }
        syncs
    }

    #[test]
    fn mirror_sync_traffic_matches_naive_recomputation() {
        use graphbench_partition::elastic::rebalance;
        use graphbench_sim::FaultPlan;
        const MACHINES: usize = 6;
        const SLOTS: usize = 48;
        let engine = gx(SLOTS);
        let _guard = exec::TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for kind in [DatasetKind::Twitter, DatasetKind::Wrn] {
            let ds = dataset(kind);
            let part =
                VertexCutPartition::build(&ds.0, SLOTS, VertexCutStrategy::Grid2D, 7).unwrap();
            let machine_of_slot = engine.assign_partitions(SLOTS, MACHINES, 7);
            for w in [Workload::Wcc, Workload::khop3(0)] {
                let rounds = changed_sets(&ds.0, w);
                let want_answer = match w {
                    Workload::Wcc => WorkloadResult::Labels(reference::wcc(&ds.1)),
                    _ => WorkloadResult::Distances(reference::khop(&ds.1, 0, 3)),
                };
                // Expected syncs of a run whose fragments sit on
                // `physical[i]` machines after the i-th migration.
                let expect = |out: &RunOutput, physical: &[usize], ctx: &str| {
                    assert!(out.metrics.status.is_ok(), "{ctx}: {:?}", out.metrics.status);
                    assert_eq!(out.result.as_ref(), Some(&want_answer), "{ctx}");
                    let syncs = sync_events(out);
                    assert_eq!(syncs.len(), rounds.len(), "{ctx}");
                    for (i, (&(migrations, got), changed)) in syncs.iter().zip(&rounds).enumerate()
                    {
                        let frag_map = rebalance(MACHINES, physical[migrations]);
                        let want = naive_sync(&part, &machine_of_slot, &frag_map, changed);
                        assert_eq!(got, want, "{ctx}: sync {i} after {migrations} migrations");
                    }
                    syncs
                };
                let mut clean = None;
                for threads in [1usize, 4] {
                    exec::set_threads(threads);
                    for chunk in [1usize, 63, 4096] {
                        exec::set_chunk_size(chunk);
                        let out = engine.run(&input(&ds, w, MACHINES, 1 << 30));
                        let ctx = format!("{kind:?} {w:?} threads {threads} chunk {chunk}");
                        expect(&out, &[MACHINES], &ctx);
                        let key = (out.metrics.network_bytes, out.metrics.messages);
                        assert_eq!(*clean.get_or_insert(key), key, "{ctx}");
                        if (threads, chunk) == (4, 63) {
                            // Scale in a quarter of the way through
                            // execution — colocated fragments stop syncing
                            // over the wire — and, in the second plan, back
                            // out past the fragment count, which restores
                            // the identity placement.
                            let p = &out.metrics.phases;
                            let at = |frac: f64| p.overhead + p.load + frac * p.execute;
                            let wire = |s: &[(usize, (u64, u64))]| -> u64 {
                                s.iter().map(|&(_, (bytes, _))| bytes).sum()
                            };
                            let static_wire = wire(&sync_events(&out));
                            for (plan, physical) in [
                                (format!("resize@{}:-m2", at(0.25)), vec![MACHINES, MACHINES - 2]),
                                (
                                    format!("resize@{}:-m2; resize@{}:+m4", at(0.25), at(0.6)),
                                    vec![MACHINES, MACHINES - 2, MACHINES + 2],
                                ),
                            ] {
                                let mut inp = input(&ds, w, MACHINES, 1 << 30);
                                inp.cluster.faults = FaultPlan::parse(&plan).unwrap();
                                let ctx = format!("{ctx} {plan}");
                                let syncs = expect(&engine.run(&inp), &physical, &ctx);
                                let reached = syncs.last().unwrap().0;
                                assert_eq!(reached, physical.len() - 1, "{ctx}: resizes reached");
                                assert!(wire(&syncs) <= static_wire, "{ctx}");
                            }
                        }
                    }
                }
            }
        }
        exec::set_chunk_size(4096);
        exec::set_threads(1);
    }

    #[test]
    fn partition_skew_creates_stragglers() {
        // Figure 11's consequence: the gateway machine hoards partitions, so
        // synchronous supersteps wait for it. Disabling the placement bias
        // (a perfectly balanced scheduler) runs measurably faster at the
        // same partition count.
        let ds = dataset(DatasetKind::Twitter);
        let w = Workload::PageRank(PageRankConfig::fixed(10));
        let mut inp = input(&ds, w, 16, 1 << 30);
        inp.cluster.work_scale = 5_000.0;
        let biased =
            GraphX { num_partitions: Some(64), gateway_bias: 0.2, ..GraphX::default() }.run(&inp);
        let balanced =
            GraphX { num_partitions: Some(64), gateway_bias: 0.0, ..GraphX::default() }.run(&inp);
        assert!(
            biased.metrics.phases.execute > balanced.metrics.phases.execute,
            "biased {} vs balanced {}",
            biased.metrics.phases.execute,
            balanced.metrics.phases.execute
        );
    }

    #[test]
    fn far_too_many_partitions_hurt_too() {
        let ds = dataset(DatasetKind::Twitter);
        let w = Workload::PageRank(PageRankConfig::fixed(10));
        let right = gx(16).run(&input(&ds, w, 4, 1 << 30));
        let many = gx(4096).run(&input(&ds, w, 4, 1 << 30));
        assert!(
            many.metrics.total_time() > right.metrics.total_time(),
            "4096 partitions {} vs 16 partitions {}",
            many.metrics.total_time(),
            right.metrics.total_time()
        );
    }
}
