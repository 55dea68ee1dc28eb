//! Blogel: vertex-centric (Blogel-V) and block-centric (Blogel-B) modes
//! (§2.1.3, §2.3).
//!
//! Both are C++/MPI systems: compact memory, negligible framework start-up.
//!
//! **Blogel-V** is Pregel-style BSP — the same execution structure as
//! Giraph, priced with native constants. The paper's end-to-end winner.
//!
//! **Blogel-B** partitions the graph into *connected blocks* with Graph
//! Voronoi Diagram sampling, runs a serial algorithm inside each block, and
//! synchronizes at block granularity — collapsing the O(diameter) superstep
//! count of reachability workloads into the block-graph diameter (§5.1).
//! Faithfully reproduced warts:
//!
//! * the partitioning result is written to HDFS and read back before
//!   execution; [`BlogelB::modified`] skips that round-trip, reproducing the
//!   paper's ~50 % load-time reduction (Figure 3);
//! * the GVD master aggregation overflows MPI's 32-bit buffer offsets at
//!   paper-scale WRN/ClueWeb vertex counts (`MPI` failure, §5.1);
//! * the two-phase block PageRank seeds the vertex phase with
//!   `local_pr(v) * block_pr(b)`, an initialization that *hurts* convergence
//!   (§3.1.2) — reproduced by executing exactly that algorithm.

use crate::bsp::{run_bsp, BspConfig};
use crate::exec;
use crate::programs::{wcc_labels, KHopProgram, PageRankProgram, SsspProgram, WccProgram};
use crate::recovery::{Recovery, RecoveryModel};
use crate::{dataset_bytes, even_share, result_bytes, Engine, EngineInput, RunOutput};
use graphbench_algos::workload::PageRankConfig;
use graphbench_algos::{Workload, WorkloadResult, UNREACHABLE};
use graphbench_graph::format::GraphFormat;
use graphbench_graph::VertexId;
use graphbench_partition::{BlockPartition, EdgeCutPartition, MachineId, VoronoiConfig};
use graphbench_sim::{Cluster, CostProfile, Phase, SimError};
use std::collections::{HashMap, VecDeque};

/// Blogel in vertex-centric mode.
#[derive(Debug, Clone, Default)]
pub struct BlogelV;

impl Engine for BlogelV {
    fn short_name(&self) -> String {
        "BV".into()
    }

    fn name(&self) -> String {
        "Blogel-V".into()
    }

    fn run(&self, input: &EngineInput<'_>) -> RunOutput {
        let mut cluster = Cluster::new(input.cluster.clone(), CostProfile::cpp_mpi());
        let mut notes = Vec::new();
        let outcome = run_vertex_mode(&mut cluster, input, &mut notes);
        crate::util::output_from(cluster, outcome, notes)
    }
}

fn run_vertex_mode(
    cluster: &mut Cluster,
    input: &EngineInput<'_>,
    _notes: &mut Vec<String>,
) -> Result<WorkloadResult, SimError> {
    let machines = cluster.machines();
    let n = input.graph.num_vertices();
    let profile = *cluster.profile();

    cluster.begin_phase(Phase::Overhead);
    cluster.charge_startup()?;

    // Load: Blogel requires the adj-long format (§4.3) so vertices with only
    // in-edges exist from the start.
    cluster.begin_phase(Phase::Load);
    let dataset = dataset_bytes(input.edges, GraphFormat::AdjLong);
    cluster.hdfs_read(&even_share(dataset, machines))?;
    let part = EdgeCutPartition::random(input.edges.num_vertices, machines, input.seed);
    let moved = dataset - dataset / machines as u64;
    cluster.set_label("shuffle");
    cluster.exchange(
        &even_share(moved, machines),
        &even_share(moved, machines),
        &even_share(n as u64, machines),
    )?;
    let mut resident = vec![0u64; machines];
    for (m, verts) in part.vertices_per_machine().iter().enumerate() {
        let edges: u64 = verts.iter().map(|&v| input.graph.out_degree(v)).sum();
        resident[m] =
            verts.len() as u64 * profile.bytes_per_vertex + edges * profile.bytes_per_edge;
    }
    cluster.set_label("load");
    cluster.alloc_all(&resident)?;
    cluster.sample_trace();

    cluster.begin_phase(Phase::Execute);
    let cfg = BspConfig { cores_for_compute: input.cluster.cores, ..BspConfig::default() };
    let result = match input.workload {
        Workload::PageRank(pr) => {
            let mut prog = PageRankProgram::new(pr);
            WorkloadResult::Ranks(run_bsp(cluster, input.graph, &part, &mut prog, &cfg)?.states)
        }
        Workload::Wcc => {
            let mut prog = WccProgram::new(n, profile.bytes_per_edge);
            WorkloadResult::Labels(wcc_labels(
                run_bsp(cluster, input.graph, &part, &mut prog, &cfg)?.states,
            ))
        }
        Workload::Sssp { source } => {
            let mut prog = SsspProgram::new(source);
            WorkloadResult::Distances(run_bsp(cluster, input.graph, &part, &mut prog, &cfg)?.states)
        }
        Workload::KHop { source, k } => {
            let mut prog = KHopProgram::new(source, k);
            WorkloadResult::Distances(run_bsp(cluster, input.graph, &part, &mut prog, &cfg)?.states)
        }
    };

    cluster.begin_phase(Phase::Save);
    cluster.hdfs_write(&even_share(result_bytes(n as u64), machines))?;
    Ok(result)
}

/// How Blogel-B forms its blocks.
#[derive(Debug, Clone, Default)]
pub enum BlogelPartitioning {
    /// Graph Voronoi Diagram sampling — what the study uses (§2.3).
    #[default]
    Gvd,
    /// The 2-D coordinate partitioner Blogel describes for road networks.
    /// Metadata-driven: no sampling rounds, no MPI aggregation (and hence
    /// no 32-bit overflow) — the ablation the paper leaves on the table.
    TwoD { coords: Vec<(u32, u32)>, cells_per_side: u32 },
    /// The URL/host-prefix partitioner for web graphs.
    Host { hosts: Vec<u32> },
}

/// Blogel in block-centric mode.
#[derive(Debug, Clone, Default)]
pub struct BlogelB {
    /// Skip the HDFS write+read between partitioning and execution — the
    /// paper's proposed enhancement (Figure 3).
    pub modified: bool,
    /// GVD sampling parameters (used by [`BlogelPartitioning::Gvd`]).
    pub voronoi: VoronoiConfig,
    /// Block formation strategy.
    pub partitioning: BlogelPartitioning,
}

impl Engine for BlogelB {
    fn short_name(&self) -> String {
        if self.modified {
            "BB*".into()
        } else {
            "BB".into()
        }
    }

    fn name(&self) -> String {
        if self.modified {
            "Blogel-B (modified, no HDFS round-trip)".into()
        } else {
            "Blogel-B".into()
        }
    }

    fn run(&self, input: &EngineInput<'_>) -> RunOutput {
        let mut cluster = Cluster::new(input.cluster.clone(), CostProfile::cpp_mpi());
        let mut notes = Vec::new();
        let outcome = run_block_mode(self, &mut cluster, input, &mut notes);
        crate::util::output_from(cluster, outcome, notes)
    }
}

fn run_block_mode(
    engine: &BlogelB,
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
    let dataset = dataset_bytes(input.edges, GraphFormat::AdjLong);
    cluster.hdfs_read(&even_share(dataset, machines))?;

    // Form blocks. GVD sampling rounds are distributed BFS passes plus a
    // master-side aggregation of per-vertex block assignments, whose size at
    // paper scale must fit MPI's 32-bit buffer offsets; the metadata-driven
    // partitioners skip both the sampling and the fragile aggregation.
    cluster.set_label("partition");
    let blocks = match &engine.partitioning {
        BlogelPartitioning::Gvd => {
            let mut voronoi = engine.voronoi.clone();
            voronoi.seed = input.seed;
            let blocks = BlockPartition::build(input.edges, machines, &voronoi);
            let aggregate_bytes = input.scale.paper_vertices.saturating_mul(8);
            if aggregate_bytes > i32::MAX as u64 {
                // One aggregation's worth of time is spent before the crash.
                let sent = even_share(8 * n as u64, machines);
                let mut recv = vec![0u64; machines];
                recv[0] = sent.iter().sum();
                let _ = cluster.exchange(&sent, &recv, &even_share(n as u64, machines));
                return Err(SimError::MpiOverflow { bytes: aggregate_bytes });
            }
            blocks
        }
        BlogelPartitioning::TwoD { coords, cells_per_side } => {
            // One metadata pass assigns every vertex to its cell.
            let ops = even_share(n as u64, machines).iter().map(|&x| x as f64).collect::<Vec<_>>();
            cluster.advance_compute(&ops, input.cluster.cores)?;
            graphbench_partition::two_d::two_d_blocks(
                input.edges,
                coords,
                machines,
                *cells_per_side,
            )
        }
        BlogelPartitioning::Host { hosts } => {
            let ops = even_share(n as u64, machines).iter().map(|&x| x as f64).collect::<Vec<_>>();
            cluster.advance_compute(&ops, input.cluster.cores)?;
            graphbench_partition::two_d::host_blocks(input.edges, hosts, machines)
        }
    };
    for _round in 0..blocks.rounds {
        // Each sampling round is a multi-superstep BFS: edge scans plus
        // frontier messages crossing the (still hash-spread) machines.
        let ops = even_share(input.graph.num_edges() + n as u64, machines)
            .iter()
            .map(|&x| x as f64 * 2.0)
            .collect::<Vec<_>>();
        cluster.advance_compute(&ops, input.cluster.cores)?;
        let frontier_bytes = 8 * input.graph.num_edges();
        cluster.exchange(
            &even_share(frontier_bytes, machines),
            &even_share(frontier_bytes, machines),
            &even_share(n as u64, machines),
        )?;
        for _ in 0..8 {
            cluster.barrier()?; // BFS depth within the round
        }
        // Master aggregation: everyone sends assignment counts to machine 0.
        let mut sent = even_share(8 * n as u64, machines);
        let mut recv = vec![0u64; machines];
        recv[0] = sent.iter().sum();
        sent[0] = 0;
        cluster.exchange(&sent, &recv, &even_share(n as u64, machines))?;
        cluster.barrier()?;
    }
    notes.push(format!(
        "GVD: {} blocks in {} rounds, boundary fraction {:.3}",
        blocks.num_blocks(),
        blocks.rounds,
        blocks.boundary_fraction(input.edges)
    ));

    if !engine.modified {
        // Stock Blogel: write partitions to HDFS and read them back (§5.1).
        cluster.set_label("partition_dump");
        cluster.hdfs_write(&even_share(dataset, machines))?;
        cluster.hdfs_read(&even_share(dataset, machines))?;
    }
    // Shuffle vertices to their block machines.
    cluster.set_label("shuffle");
    let moved = dataset - dataset / machines as u64;
    cluster.exchange(
        &even_share(moved, machines),
        &even_share(moved, machines),
        &even_share(n as u64, machines),
    )?;
    let mut resident = vec![0u64; machines];
    for (b, verts) in blocks.blocks.iter().enumerate() {
        let m = blocks.machine_of_block[b] as usize;
        let edges: u64 = verts.iter().map(|&v| input.graph.out_degree(v)).sum();
        resident[m] +=
            verts.len() as u64 * profile.bytes_per_vertex + edges * profile.bytes_per_edge;
    }
    cluster.set_label("load");
    cluster.alloc_all(&resident)?;
    cluster.sample_trace();

    cluster.begin_phase(Phase::Execute);
    // Blogel has no checkpointing (Table 1): losing a machine restarts the
    // computation. Faults are detected at the block-superstep barriers
    // through the unified recovery layer; the vertex-centric tail of block
    // PageRank delegates to `run_bsp`, which brings its own replay.
    let mut recovery = Recovery::new(cluster, RecoveryModel::QueryRestart);
    // Flat vertex→machine table, computed once and shared by every workload
    // below (the two-level block lookup was two dependent loads per
    // neighbor, and re-deriving the table per workload re-allocated O(n)).
    let machine_of = blocks.vertex_assignment();
    let result = match input.workload {
        Workload::Wcc => {
            WorkloadResult::Labels(block_wcc(cluster, input, &blocks, &machine_of, &mut recovery)?)
        }
        Workload::Sssp { source } => WorkloadResult::Distances(block_traversal(
            cluster,
            input,
            &blocks,
            &machine_of,
            source,
            u32::MAX,
            &mut recovery,
        )?),
        Workload::KHop { source, k } => WorkloadResult::Distances(block_traversal(
            cluster,
            input,
            &blocks,
            &machine_of,
            source,
            k,
            &mut recovery,
        )?),
        Workload::PageRank(pr) => WorkloadResult::Ranks(block_pagerank(
            cluster,
            input,
            &blocks,
            &machine_of,
            pr,
            &mut recovery,
        )?),
    };

    cluster.begin_phase(Phase::Save);
    cluster.hdfs_write(&even_share(result_bytes(n as u64), machines))?;
    Ok(result)
}

/// Block-centric WCC: a serial pass inside each block labels every *local
/// component* with its minimum member id, then HashMin runs on the graph of
/// local components, converging in component-graph-diameter supersteps
/// instead of graph-diameter (§5.1). GVD blocks are connected so they hold
/// exactly one local component; metadata-driven blocks (2-D cells, hosts)
/// may hold several.
fn block_wcc(
    cluster: &mut Cluster,
    input: &EngineInput<'_>,
    blocks: &BlockPartition,
    machine_of: &[MachineId],
    recovery: &mut Recovery,
) -> Result<Vec<VertexId>, SimError> {
    let machines = cluster.machines();
    let n = input.graph.num_vertices();

    // Serial pass per block: union-find over intra-block edges.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    let mut ops0 = vec![0.0f64; machines];
    for e in &input.edges.edges {
        let (bs, bd) = (blocks.block_of[e.src as usize], blocks.block_of[e.dst as usize]);
        if bs == bd {
            let (a, b) = (find(&mut parent, e.src), find(&mut parent, e.dst));
            if a != b {
                parent[a as usize] = b;
            }
            ops0[blocks.machine_of_block[bs as usize] as usize] += 1.0;
        }
    }
    // Compact local-component ids and their minimum member labels.
    let mut comp_of = vec![u32::MAX; n];
    let mut comp_label: Vec<VertexId> = Vec::new();
    let mut comp_machine: Vec<usize> = Vec::new();
    for v in 0..n as u32 {
        let root = find(&mut parent, v) as usize;
        if comp_of[root] == u32::MAX {
            comp_of[root] = comp_label.len() as u32;
            comp_label.push(v);
            comp_machine.push(blocks.machine_of_block[blocks.block_of[root] as usize] as usize);
        }
        comp_of[v as usize] = comp_of[root];
        ops0[machine_of[v as usize] as usize] += 1.0;
    }
    cluster.set_label("block_local");
    cluster.advance_compute(&ops0, input.cluster.cores)?;
    cluster.set_label("barrier");
    cluster.barrier()?;
    recovery.at_barrier(cluster)?;

    // Undirected component graph over cross-block (or cross-component)
    // edges, deduplicated.
    let nc = comp_label.len();
    let mut comp_adj: Vec<Vec<u32>> = vec![Vec::new(); nc];
    for e in &input.edges.edges {
        let (a, b) = (comp_of[e.src as usize], comp_of[e.dst as usize]);
        if a != b {
            comp_adj[a as usize].push(b);
            comp_adj[b as usize].push(a);
        }
    }
    for l in &mut comp_adj {
        l.sort_unstable();
        l.dedup();
    }

    // HashMin over local components, sharded by machine: every worker scans
    // its own components against the frozen labels and reports candidate
    // updates; the coordinator merges per-machine reports in machine-index
    // order. Min-folds are order-independent, so the outcome is identical at
    // any host thread count.
    let comps_by_machine: Vec<Vec<u32>> = {
        let mut by: Vec<Vec<u32>> = vec![Vec::new(); machines];
        for c in 0..nc as u32 {
            by[comp_machine[c as usize]].push(c);
        }
        by
    };
    // Component -> index within its machine's shard.
    let mut comp_slot = vec![0u32; nc];
    for comps in &comps_by_machine {
        for (i, &c) in comps.iter().enumerate() {
            comp_slot[c as usize] = i as u32;
        }
    }
    struct WccShard {
        comps: Vec<u32>,
        active: Vec<bool>,
    }
    /// Per-chunk output, pooled across supersteps.
    struct WccOut {
        ops: f64,
        sent: u64,
        msgs: u64,
        recv_by: Vec<u64>,
        updates: Vec<(u32, VertexId)>,
    }
    struct WccTask<'a> {
        machine: usize,
        comps: &'a [u32],
        active: &'a mut [bool],
        out: &'a mut WccOut,
    }
    let mut shards: Vec<WccShard> = comps_by_machine
        .into_iter()
        .map(|comps| {
            let len = comps.len();
            WccShard { comps, active: vec![true; len] }
        })
        .collect();
    let mut ops = vec![0.0f64; machines];
    let mut sent = vec![0u64; machines];
    let mut recv = vec![0u64; machines];
    let mut msgs = vec![0u64; machines];
    let mut pool: Vec<WccOut> = Vec::new();
    loop {
        cluster.set_label("superstep");
        // Each machine's shard splits into degree-aware sub-spans (an inert
        // component weighs 1, an active one 1 + its adjacency) so one hub
        // component cannot serialize its machine. Candidates land in pooled
        // per-chunk buckets concatenated in span order, which is exactly the
        // serial scan order: emission reads only the frozen labels.
        let spans_by: Vec<Vec<(usize, usize)>> = shards
            .iter()
            .map(|shard| {
                let weights: Vec<u64> =
                    shard
                        .comps
                        .iter()
                        .enumerate()
                        .map(|(i, &c)| {
                            if shard.active[i] {
                                1 + comp_adj[c as usize].len() as u64
                            } else {
                                1
                            }
                        })
                        .collect();
                exec::weighted_spans(&weights, exec::chunk_size())
            })
            .collect();
        let total: usize = spans_by.iter().map(|s| s.len()).sum();
        while pool.len() < total {
            pool.push(WccOut {
                ops: 0.0,
                sent: 0,
                msgs: 0,
                recv_by: vec![0u64; machines],
                updates: Vec::new(),
            });
        }
        let mut tasks: Vec<WccTask<'_>> = Vec::with_capacity(total);
        let mut pool_rest: &mut [WccOut] = &mut pool;
        for ((shard, spans), mc) in shards.iter_mut().zip(&spans_by).zip(0..) {
            let mut act: &mut [bool] = &mut shard.active;
            for &(s, e) in spans {
                let (win, rest) = std::mem::take(&mut act).split_at_mut(e - s);
                act = rest;
                let (out, prest) = std::mem::take(&mut pool_rest).split_at_mut(1);
                pool_rest = prest;
                tasks.push(WccTask {
                    machine: mc,
                    comps: &shard.comps[s..e],
                    active: win,
                    out: &mut out[0],
                });
            }
        }
        exec::run_chunks(&mut tasks, |_, t| {
            let out = &mut *t.out;
            out.ops = 0.0;
            out.sent = 0;
            out.msgs = 0;
            out.recv_by.fill(0);
            out.updates.clear();
            for (i, &c) in t.comps.iter().enumerate() {
                if !t.active[i] {
                    continue;
                }
                let c = c as usize;
                out.ops += (1 + comp_adj[c].len()) as f64;
                for &tt in &comp_adj[c] {
                    if comp_label[c] < comp_label[tt as usize] {
                        out.updates.push((tt, comp_label[c]));
                        let mt = comp_machine[tt as usize];
                        if mt != t.machine {
                            out.sent += 8;
                            out.recv_by[mt] += 8;
                            out.msgs += 1;
                        }
                    }
                }
                t.active[i] = false;
            }
        });
        // Per-machine folds of integer-valued f64 ops and u64 byte counts
        // are exact at any chunk boundary, so the charged metrics match the
        // serial path bit for bit.
        let mut any_updates = false;
        ops.fill(0.0);
        sent.fill(0);
        msgs.fill(0);
        recv.fill(0);
        for t in &tasks {
            ops[t.machine] += t.out.ops;
            sent[t.machine] += t.out.sent;
            msgs[t.machine] += t.out.msgs;
            any_updates |= !t.out.updates.is_empty();
            for (j, &b) in t.out.recv_by.iter().enumerate() {
                recv[j] += b;
            }
        }
        drop(tasks);
        cluster.set_label("superstep");
        cluster.advance_compute(&ops, input.cluster.cores)?;
        cluster.set_label("shuffle");
        cluster.exchange(&sent, &recv, &msgs)?;
        cluster.set_label("barrier");
        cluster.barrier()?;
        recovery.at_barrier(cluster)?;
        if !any_updates {
            break;
        }
        // Min-fold in chunk order = serial machine order; a component turns
        // active iff some candidate beats its label, which is independent of
        // the order improvements arrive in.
        for out in pool.iter().take(total) {
            for &(t, l) in &out.updates {
                if l < comp_label[t as usize] {
                    comp_label[t as usize] = l;
                    shards[comp_machine[t as usize]].active[comp_slot[t as usize] as usize] = true;
                }
            }
        }
    }
    Ok((0..n as VertexId).map(|v| comp_label[comp_of[v as usize] as usize]).collect())
}

/// Block-centric SSSP / K-hop: serial multi-source BFS inside a block, BSP
/// between blocks. `max_depth = u32::MAX` for SSSP.
fn block_traversal(
    cluster: &mut Cluster,
    input: &EngineInput<'_>,
    blocks: &BlockPartition,
    machine_of: &[MachineId],
    source: VertexId,
    max_depth: u32,
    recovery: &mut Recovery,
) -> Result<Vec<u32>, SimError> {
    let machines = cluster.machines();
    let n = input.graph.num_vertices();
    let g = input.graph;
    let mut dist = vec![UNREACHABLE; n];
    dist[source as usize] = 0;

    // Blocks grouped by owning machine, then split into degree-aware spans
    // of whole blocks: the serial BFS inside a block is the atomic unit, so
    // a chunk runs one or more blocks end to end. The shared `dist` array is
    // frozen for the duration of a superstep — a chunk sees its own blocks'
    // writes through a private overlay and records, per block, the distance
    // writes plus every cross-block candidate that beats the frozen table.
    // The serial path additionally suppressed candidates already improved by
    // an *earlier block of the same machine* (the overlay was shared per
    // worker), so a serial replay below re-applies that filter in block
    // order before any candidate is counted or sent.
    struct TravShard {
        blocks: Vec<u32>,
        pending: Vec<Vec<VertexId>>,
    }
    /// One block's superstep output.
    struct BlockOut {
        attempts: Vec<(VertexId, u32)>,
        writes: Vec<(VertexId, u32)>,
        ran: bool,
    }
    /// Per-chunk output, pooled across supersteps.
    struct TravOut {
        ops: u64,
        blocks_out: Vec<BlockOut>,
    }
    struct TravTask<'a> {
        blocks: &'a [u32],
        pending: &'a mut [Vec<VertexId>],
        out: &'a mut TravOut,
    }
    let mut shards: Vec<TravShard> =
        (0..machines).map(|_| TravShard { blocks: Vec::new(), pending: Vec::new() }).collect();
    // Block -> (machine, index within that machine's shard).
    let mut block_slot: Vec<(usize, u32)> = vec![(0, 0); blocks.num_blocks()];
    for b in 0..blocks.num_blocks() {
        let mb = blocks.machine_of_block[b] as usize;
        block_slot[b] = (mb, shards[mb].blocks.len() as u32);
        shards[mb].blocks.push(b as u32);
        shards[mb].pending.push(Vec::new());
    }
    {
        let (mb, slot) = block_slot[blocks.block_of[source as usize] as usize];
        shards[mb].pending[slot as usize].push(source);
    }

    fn read(overlay: &HashMap<VertexId, u32>, dist: &[u32], v: VertexId) -> u32 {
        overlay.get(&v).copied().unwrap_or(dist[v as usize])
    }
    // Degree-aware chunk weight per block, computed once: a pending block
    // costs up to its total out-degree to scan, an idle one costs a skip.
    let block_weight: Vec<u64> = (0..blocks.num_blocks())
        .map(|b| 1 + blocks.blocks[b].iter().map(|&v| g.out_degree(v)).sum::<u64>())
        .collect();
    let mut pool: Vec<TravOut> = Vec::new();
    let mut chunk_machine: Vec<usize> = Vec::new();
    let mut overlay: HashMap<VertexId, u32> = HashMap::new();
    loop {
        cluster.set_label("superstep");
        let spans_by: Vec<Vec<(usize, usize)>> = shards
            .iter()
            .map(|shard| {
                let weights: Vec<u64> = shard
                    .blocks
                    .iter()
                    .zip(&shard.pending)
                    .map(
                        |(&b, pending)| {
                            if pending.is_empty() {
                                1
                            } else {
                                block_weight[b as usize]
                            }
                        },
                    )
                    .collect();
                exec::weighted_spans(&weights, exec::chunk_size())
            })
            .collect();
        let total: usize = spans_by.iter().map(|s| s.len()).sum();
        while pool.len() < total {
            pool.push(TravOut { ops: 0, blocks_out: Vec::new() });
        }
        chunk_machine.clear();
        let mut tasks: Vec<TravTask<'_>> = Vec::with_capacity(total);
        let mut pool_rest: &mut [TravOut] = &mut pool;
        for ((shard, spans), mb) in shards.iter_mut().zip(&spans_by).zip(0..) {
            let mut pend: &mut [Vec<VertexId>] = &mut shard.pending;
            for &(s, e) in spans {
                let (win, rest) = std::mem::take(&mut pend).split_at_mut(e - s);
                pend = rest;
                let (out, prest) = std::mem::take(&mut pool_rest).split_at_mut(1);
                pool_rest = prest;
                chunk_machine.push(mb);
                tasks.push(TravTask {
                    blocks: &shard.blocks[s..e],
                    pending: win,
                    out: &mut out[0],
                });
            }
        }
        let dist_r: &[u32] = &dist;
        exec::run_chunks(&mut tasks, |_, t| {
            let out = &mut *t.out;
            out.ops = 0;
            out.blocks_out.clear();
            for (i, &b) in t.blocks.iter().enumerate() {
                let mut bo = BlockOut { attempts: Vec::new(), writes: Vec::new(), ran: false };
                if !t.pending[i].is_empty() {
                    bo.ran = true;
                    // Serial BFS within the block from all seeds; the
                    // overlay holds only this block's writes (intra-block
                    // targets are block-local by construction).
                    let mut overlay: HashMap<VertexId, u32> = HashMap::new();
                    let mut q: VecDeque<VertexId> = t.pending[i].drain(..).collect();
                    while let Some(v) = q.pop_front() {
                        let d = read(&overlay, dist_r, v);
                        if d >= max_depth {
                            continue;
                        }
                        for &t2 in g.out_neighbors(v) {
                            out.ops += 1;
                            if read(&overlay, dist_r, t2) <= d + 1 {
                                continue;
                            }
                            if blocks.block_of[t2 as usize] == b {
                                overlay.insert(t2, d + 1);
                                q.push_back(t2);
                            } else {
                                bo.attempts.push((t2, d + 1));
                            }
                        }
                    }
                    bo.writes = overlay.into_iter().collect();
                    bo.writes.sort_unstable();
                }
                out.blocks_out.push(bo);
            }
        });
        drop(tasks);
        // Serial replay in (machine, block) order: rebuild each machine's
        // shared overlay from the per-block writes and keep only the
        // candidates the serial worker would have emitted. A block's own
        // writes never target its cross-block candidates, so interleaving
        // "filter attempts, then absorb writes" per block is exact.
        let mut ops = vec![0.0f64; machines];
        let mut sent = vec![0u64; machines];
        let mut recv = vec![0u64; machines];
        let mut msgs = vec![0u64; machines];
        let mut any = false;
        let mut outgoing: Vec<(VertexId, u32)> = Vec::new();
        let mut cur_machine = usize::MAX;
        for (c, out) in pool.iter().take(total).enumerate() {
            let mb = chunk_machine[c];
            if mb != cur_machine {
                cur_machine = mb;
                overlay.clear();
            }
            ops[mb] += out.ops as f64;
            for bo in &out.blocks_out {
                any |= bo.ran;
                for &(t, d2) in &bo.attempts {
                    if read(&overlay, &dist, t) <= d2 {
                        continue;
                    }
                    outgoing.push((t, d2));
                    let mt = machine_of[t as usize] as usize;
                    if mt != mb {
                        sent[mb] += 8;
                        recv[mt] += 8;
                        msgs[mb] += 1;
                    }
                }
                for &(t, d2) in &bo.writes {
                    overlay.insert(t, d2);
                }
            }
        }
        if !any {
            break;
        }
        cluster.set_label("superstep");
        cluster.advance_compute(&ops, input.cluster.cores)?;
        cluster.set_label("shuffle");
        cluster.exchange(&sent, &recv, &msgs)?;
        cluster.set_label("barrier");
        cluster.barrier()?;
        recovery.at_barrier(cluster)?;
        // Intra-block writes first (disjoint vertex sets per block), then
        // cross-block candidates min-folded in machine order.
        for out in pool.iter().take(total) {
            for bo in &out.blocks_out {
                for &(t, d) in &bo.writes {
                    dist[t as usize] = d;
                }
            }
        }
        for (t, d) in outgoing.drain(..) {
            if d < dist[t as usize] {
                dist[t as usize] = d;
                let (mb, slot) = block_slot[blocks.block_of[t as usize] as usize];
                shards[mb].pending[slot as usize].push(t);
            }
        }
    }
    Ok(dist)
}

/// The paper's two-phase block PageRank (§3.1.2): (1) local PageRank inside
/// each block, then PageRank on the block graph; (2) a full vertex-centric
/// phase initialized with `local_pr(v) * block_pr(b)`. The poor
/// initialization makes phase 2 need *more* supersteps than a plain run —
/// the effect the paper observed.
fn block_pagerank(
    cluster: &mut Cluster,
    input: &EngineInput<'_>,
    blocks: &BlockPartition,
    machine_of: &[MachineId],
    pr: PageRankConfig,
    recovery: &mut Recovery,
) -> Result<Vec<f64>, SimError> {
    let machines = cluster.machines();
    let g = input.graph;
    let n = g.num_vertices();
    let nb = blocks.num_blocks();
    let damping = pr.damping;
    let local_tol = 0.01;
    let max_local_iters = 30;

    // Phase 1a: local PageRank within each block (only intra-block edges).
    let mut local_pr = vec![1.0f64; n];
    {
        // Per-vertex intra-block out-degree.
        let mut intra_deg = vec![0u32; n];
        for (s, d) in g.edges() {
            if blocks.block_of[s as usize] == blocks.block_of[d as usize] {
                intra_deg[s as usize] += 1;
            }
        }
        // Blocks only read and write their own vertices here, so whole
        // blocks fan out across host threads: grouped by owning machine for
        // metric attribution, then split into degree-aware spans of whole
        // blocks so one giant block cannot serialize its machine. Every
        // block's f64 arithmetic runs entirely inside one chunk, and the
        // u64 op counts sum order-free, so metrics and ranks are identical
        // to the serial path at any chunk or thread count.
        struct PrTask<'a> {
            machine: usize,
            blocks_list: &'a [u32],
            ops: u64,
            ranks: Vec<(VertexId, f64)>,
        }
        let mut block_shards: Vec<Vec<u32>> = vec![Vec::new(); machines];
        for b in 0..nb {
            block_shards[blocks.machine_of_block[b] as usize].push(b as u32);
        }
        cluster.set_label("block_local");
        let mut tasks: Vec<PrTask<'_>> = Vec::new();
        for (mb, mine) in block_shards.iter().enumerate() {
            let weights: Vec<u64> = mine
                .iter()
                .map(|&b| {
                    1 + blocks.blocks[b as usize].iter().map(|&v| g.out_degree(v)).sum::<u64>()
                })
                .collect();
            for &(s, e) in &exec::weighted_spans(&weights, exec::chunk_size()) {
                tasks.push(PrTask {
                    machine: mb,
                    blocks_list: &mine[s..e],
                    ops: 0,
                    ranks: Vec::new(),
                });
            }
        }
        exec::run_chunks(&mut tasks, |_, t| {
            let mut block_ops = 0u64;
            let mut rank: HashMap<VertexId, f64> = HashMap::new();
            let mut incoming: HashMap<VertexId, f64> = HashMap::new();
            for &b in t.blocks_list.iter() {
                let verts = &blocks.blocks[b as usize];
                rank.clear();
                for _ in 0..max_local_iters {
                    incoming.clear();
                    for &v in verts {
                        let deg = intra_deg[v as usize];
                        if deg == 0 {
                            continue;
                        }
                        let share = rank.get(&v).copied().unwrap_or(1.0) / deg as f64;
                        for &t2 in g.out_neighbors(v) {
                            block_ops += 1;
                            if blocks.block_of[t2 as usize] == b {
                                *incoming.entry(t2).or_insert(0.0) += share;
                            }
                        }
                    }
                    let mut max_delta = 0.0f64;
                    for &v in verts {
                        let new =
                            damping + (1.0 - damping) * incoming.get(&v).copied().unwrap_or(0.0);
                        max_delta =
                            max_delta.max((new - rank.get(&v).copied().unwrap_or(1.0)).abs());
                        rank.insert(v, new);
                        block_ops += 1;
                    }
                    if max_delta < local_tol {
                        break;
                    }
                }
                for &v in verts {
                    t.ranks.push((v, rank.get(&v).copied().unwrap_or(1.0)));
                }
            }
            t.ops = block_ops;
        });
        let mut ops = vec![0.0f64; machines];
        for t in &tasks {
            ops[t.machine] += t.ops as f64;
        }
        for t in tasks {
            for (v, r) in t.ranks {
                local_pr[v as usize] = r;
            }
        }
        cluster.set_label("block_local");
        cluster.advance_compute(&ops, input.cluster.cores)?;
        cluster.set_label("barrier");
        cluster.barrier()?;
        recovery.at_barrier(cluster)?;
    }

    // Phase 1b: PageRank on the block graph with cross-edge-count weights.
    let mut block_pr = vec![1.0f64; nb];
    {
        let mut weights: std::collections::HashMap<(u32, u32), f64> =
            std::collections::HashMap::new();
        for e in &input.edges.edges {
            let (a, b) = (blocks.block_of[e.src as usize], blocks.block_of[e.dst as usize]);
            if a != b {
                *weights.entry((a, b)).or_insert(0.0) += 1.0;
            }
        }
        let mut out_weight = vec![0.0f64; nb];
        for (&(a, _), &w) in &weights {
            out_weight[a as usize] += w;
        }
        let mut edges: Vec<((u32, u32), f64)> = weights.into_iter().collect();
        edges.sort_unstable_by_key(|&(k, _)| k);
        for _ in 0..max_local_iters {
            let mut incoming = vec![0.0f64; nb];
            for &((a, b), w) in &edges {
                if out_weight[a as usize] > 0.0 {
                    incoming[b as usize] += block_pr[a as usize] * w / out_weight[a as usize];
                }
            }
            let mut max_delta = 0.0f64;
            for b in 0..nb {
                let new = damping + (1.0 - damping) * incoming[b];
                max_delta = max_delta.max((new - block_pr[b]).abs());
                block_pr[b] = new;
            }
            let ops = even_share(edges.len() as u64 + nb as u64, machines)
                .iter()
                .map(|&x| x as f64)
                .collect::<Vec<_>>();
            cluster.set_label("block_pr");
            cluster.advance_compute(&ops, input.cluster.cores)?;
            let bytes = even_share(edges.len() as u64 * 8, machines);
            cluster.exchange(&bytes, &bytes, &even_share(edges.len() as u64, machines))?;
            cluster.set_label("barrier");
            cluster.barrier()?;
            recovery.at_barrier(cluster)?;
            if max_delta < local_tol {
                break;
            }
        }
    }

    // Phase 2: vertex-centric PageRank seeded with local_pr * block_pr.
    let init: Vec<f64> =
        (0..n).map(|v| local_pr[v] * block_pr[blocks.block_of[v] as usize]).collect();
    let part = block_placement_as_edge_cut(machine_of, machines);
    let mut prog = PageRankProgram::with_init(pr, init);
    let cfg = BspConfig { cores_for_compute: input.cluster.cores, ..BspConfig::default() };
    Ok(run_bsp(cluster, g, &part, &mut prog, &cfg)?.states)
}

/// Adapt the block→machine placement into the vertex→machine form the BSP
/// runtime consumes, reusing the flat table computed once per run.
fn block_placement_as_edge_cut(machine_of: &[MachineId], machines: usize) -> EdgeCutPartition {
    EdgeCutPartition::from_assignment(machine_of.to_vec(), machines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScaleInfo;
    use graphbench_algos::reference;
    use graphbench_algos::workload::StopCriterion;
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
    ) -> EngineInput<'a> {
        EngineInput {
            edges: &ds.0,
            graph: &ds.1,
            workload,
            cluster: ClusterSpec::r3_xlarge(machines, 1 << 30),
            seed: 7,
            scale: ScaleInfo::actual(&ds.0),
        }
    }

    #[test]
    fn blogel_v_matches_reference() {
        let ds = dataset(DatasetKind::Twitter);
        let out = BlogelV.run(&input(&ds, Workload::Wcc, 4));
        assert!(out.metrics.status.is_ok());
        assert_eq!(out.result.unwrap(), WorkloadResult::Labels(reference::wcc(&ds.1)));
    }

    #[test]
    fn blogel_b_wcc_matches_reference() {
        let ds = dataset(DatasetKind::Wrn);
        let out = BlogelB::default().run(&input(&ds, Workload::Wcc, 4));
        assert!(out.metrics.status.is_ok(), "{:?}", out.metrics.status);
        assert_eq!(out.result.unwrap(), WorkloadResult::Labels(reference::wcc(&ds.1)));
    }

    #[test]
    fn blogel_b_sssp_and_khop_match_reference() {
        let ds = dataset(DatasetKind::Wrn);
        let src: VertexId =
            (0..ds.1.num_vertices() as VertexId).find(|&v| ds.1.out_degree(v) > 0).unwrap();
        let sssp = BlogelB::default().run(&input(&ds, Workload::Sssp { source: src }, 4));
        assert_eq!(sssp.result.unwrap(), WorkloadResult::Distances(reference::sssp(&ds.1, src)));
        let khop = BlogelB::default().run(&input(&ds, Workload::khop3(src), 4));
        assert_eq!(khop.result.unwrap(), WorkloadResult::Distances(reference::khop(&ds.1, src, 3)));
    }

    #[test]
    fn blogel_b_needs_fewer_supersteps_than_vertex_mode_on_road_networks() {
        let ds = dataset(DatasetKind::Wrn);
        let src: VertexId =
            (0..ds.1.num_vertices() as VertexId).find(|&v| ds.1.out_degree(v) > 0).unwrap();
        let w = Workload::Sssp { source: src };
        let bv = BlogelV.run(&input(&ds, w, 4));
        let bb = BlogelB::default().run(&input(&ds, w, 4));
        assert!(
            bb.metrics.iterations * 3 < bv.metrics.iterations,
            "BB {} vs BV {} supersteps",
            bb.metrics.iterations,
            bv.metrics.iterations
        );
        // And shorter execution time (the paper's headline, §5.1).
        assert!(
            bb.metrics.phases.execute < bv.metrics.phases.execute,
            "BB {} vs BV {}",
            bb.metrics.phases.execute,
            bv.metrics.phases.execute
        );
    }

    #[test]
    fn blogel_b_pagerank_matches_reference_fixpoint() {
        let ds = dataset(DatasetKind::Twitter);
        let pr = PageRankConfig {
            stop: StopCriterion::Tolerance(1e-6),
            ..PageRankConfig::paper_exact()
        };
        let out = BlogelB::default().run(&input(&ds, Workload::PageRank(pr), 4));
        assert!(out.metrics.status.is_ok(), "{:?}", out.metrics.status);
        let (want, _) = reference::pagerank(&ds.1, &pr);
        match out.result.unwrap() {
            WorkloadResult::Ranks(ranks) => {
                for (a, b) in ranks.iter().zip(&want) {
                    assert!((a - b).abs() < 1e-3, "{a} vs {b}");
                }
            }
            other => panic!("wrong result {other:?}"),
        }
    }

    #[test]
    fn modified_variant_loads_faster() {
        let ds = dataset(DatasetKind::Twitter);
        let stock = BlogelB::default().run(&input(&ds, Workload::Wcc, 4));
        let modified =
            BlogelB { modified: true, ..BlogelB::default() }.run(&input(&ds, Workload::Wcc, 4));
        assert!(
            modified.metrics.phases.load < stock.metrics.phases.load,
            "modified {} vs stock {}",
            modified.metrics.phases.load,
            stock.metrics.phases.load
        );
        // Execution is identical.
        assert_eq!(modified.result, stock.result);
    }

    #[test]
    fn two_d_partitioning_avoids_the_mpi_overflow() {
        // With Blogel's road-network 2-D partitioner (the dataset-specific
        // technique the study skipped), no sampling aggregation runs and
        // paper-scale WRN completes.
        let d = Dataset::generate(DatasetKind::Wrn, Scale { base: 400 }, 3);
        let g = d.to_csr();
        let coords: Vec<(u32, u32)> = d.coords.clone().unwrap();
        let engine = BlogelB {
            partitioning: super::BlogelPartitioning::TwoD { coords, cells_per_side: 8 },
            ..BlogelB::default()
        };
        let ds = (d.edges, g);
        let mut inp = input(&ds, Workload::Wcc, 4);
        inp.scale = ScaleInfo { paper_vertices: 683_000_000, paper_edges: 717_000_000 };
        let out = engine.run(&inp);
        assert!(out.metrics.status.is_ok(), "{:?}", out.metrics.status);
        assert_eq!(out.result.unwrap(), WorkloadResult::Labels(reference::wcc(&ds.1)));
    }

    #[test]
    fn host_partitioning_matches_reference_on_web_graphs() {
        let d = Dataset::generate(DatasetKind::Uk0705, Scale { base: 400 }, 3);
        let g = d.to_csr();
        let hosts = d.hosts.clone().unwrap();
        let engine = BlogelB {
            partitioning: super::BlogelPartitioning::Host { hosts },
            ..BlogelB::default()
        };
        let ds = (d.edges, g);
        let out = engine.run(&input(&ds, Workload::Wcc, 4));
        assert!(out.metrics.status.is_ok());
        assert_eq!(out.result.unwrap(), WorkloadResult::Labels(reference::wcc(&ds.1)));
    }

    #[test]
    fn mpi_overflow_at_paper_scale_road_network() {
        let ds = dataset(DatasetKind::Wrn);
        let mut inp = input(&ds, Workload::Wcc, 4);
        // WRN at paper scale: 683 M vertices -> 5.5 GB aggregation > i32::MAX.
        inp.scale = ScaleInfo { paper_vertices: 683_000_000, paper_edges: 717_000_000 };
        let out = BlogelB::default().run(&inp);
        assert_eq!(out.metrics.status.code(), "MPI");
        // UK-scale vertex counts do not overflow.
        let mut ok = input(&ds, Workload::Wcc, 4);
        ok.scale = ScaleInfo { paper_vertices: 105_000_000, paper_edges: 3_700_000_000 };
        assert!(BlogelB::default().run(&ok).metrics.status.is_ok());
    }
}
