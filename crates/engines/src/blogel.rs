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
//!
//! On the host, each block phase (WCC's union-find and component HashMin,
//! the block traversal, local PageRank) is one serial scan on one thread,
//! in an order fixed by the blocks, never by the thread count; only block
//! PageRank's vertex phase, on the BSP rank path, runs chunked.

use crate::bsp::{self, run_bsp_pagerank, BspConfig};
use crate::programs::PageRankProgram;
use crate::recovery::{Recovery, RecoveryModel};
use crate::{even_share, result_bytes, Engine, EngineInput, RunOutput};
use graphbench_algos::workload::PageRankConfig;
use graphbench_algos::{Workload, WorkloadResult, UNREACHABLE};
use graphbench_graph::format::GraphFormat;
use graphbench_graph::VertexId;
use graphbench_partition::{BlockPartition, EdgeCutPartition, MachineId, VoronoiConfig};
use graphbench_sim::{Cluster, CostProfile, Phase, SimError};

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
        let outcome = run_vertex_mode(&mut cluster, input);
        crate::util::output_from(cluster, outcome, Vec::new())
    }
}

fn run_vertex_mode(
    cluster: &mut Cluster,
    input: &EngineInput<'_>,
) -> Result<WorkloadResult, SimError> {
    let machines = cluster.machines();
    let n = input.graph.num_vertices();
    let profile = *cluster.profile();

    cluster.begin_phase(Phase::Overhead);
    cluster.charge_startup()?;

    // Load: Blogel requires the adj-long format (§4.3) so vertices with only
    // in-edges exist from the start.
    cluster.begin_phase(Phase::Load);
    let dataset = input.graph.text_bytes(GraphFormat::AdjLong);
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
    let result = bsp::run_workload(
        cluster,
        input.graph,
        &part,
        input.workload,
        profile.bytes_per_edge,
        &cfg,
    )?;

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
    let dataset = input.graph.text_bytes(GraphFormat::AdjLong);
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
    // PageRank delegates to `run_bsp_pagerank`, which brings its own replay.
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
    // edges: each component's members, bucketed in one pass, list their
    // out- and in-neighbours' components, and `seen[d] == c` keeps each
    // neighbour once. Lists are in order of first sight; HashMin below
    // reads them only through integer sums and a min-fold.
    let nc = comp_label.len();
    let mut first = vec![0usize; nc + 1];
    for &c in &comp_of {
        first[c as usize + 1] += 1;
    }
    for c in 0..nc {
        first[c + 1] += first[c];
    }
    let mut members = vec![0 as VertexId; n];
    let mut cursor = first[..nc].to_vec();
    for (v, &c) in comp_of.iter().enumerate() {
        members[cursor[c as usize]] = v as VertexId;
        cursor[c as usize] += 1;
    }
    let (g, ins) = (input.graph, input.graph.in_index());
    let mut seen = vec![u32::MAX; nc];
    let comp_adj: Vec<Vec<u32>> = (0..nc as u32)
        .map(|c| {
            seen[c as usize] = c;
            let mut adj = Vec::new();
            for &v in &members[first[c as usize]..first[c as usize + 1]] {
                for &u in g.out_neighbors(v).iter().chain(ins.neighbors(v)) {
                    let d = comp_of[u as usize];
                    if seen[d as usize] != c {
                        seen[d as usize] = c;
                        adj.push(d);
                    }
                }
            }
            adj
        })
        .collect();

    // HashMin over local components: each superstep scans the active
    // components against the frozen labels, charges each one's work and
    // cross-machine messages to its machine, and min-folds the candidates
    // after the barrier. The charged sums are integer-valued and min is
    // order-free, so the scan order reaches neither metrics nor labels.
    let mut active = vec![true; nc];
    let mut updates: Vec<(u32, VertexId)> = Vec::new();
    loop {
        cluster.set_label("superstep");
        let mut ops = vec![0.0f64; machines];
        let mut sent = vec![0u64; machines];
        let mut recv = vec![0u64; machines];
        let mut msgs = vec![0u64; machines];
        for c in 0..nc {
            if !std::mem::take(&mut active[c]) {
                continue;
            }
            let mc = comp_machine[c];
            ops[mc] += (1 + comp_adj[c].len()) as f64;
            for &t in &comp_adj[c] {
                if comp_label[c] < comp_label[t as usize] {
                    updates.push((t, comp_label[c]));
                    let mt = comp_machine[t as usize];
                    if mt != mc {
                        sent[mc] += 8;
                        recv[mt] += 8;
                        msgs[mc] += 1;
                    }
                }
            }
        }
        cluster.advance_compute(&ops, input.cluster.cores)?;
        cluster.set_label("shuffle");
        cluster.exchange(&sent, &recv, &msgs)?;
        cluster.set_label("barrier");
        cluster.barrier()?;
        recovery.at_barrier(cluster)?;
        if updates.is_empty() {
            break;
        }
        for (t, l) in updates.drain(..) {
            if l < comp_label[t as usize] {
                comp_label[t as usize] = l;
                active[t as usize] = true;
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

    // Each superstep scans the machines in order and each machine's blocks
    // in ascending id, running a serial BFS from every pending block's
    // seeds. `dist` is frozen for the superstep: a block's own improvements
    // go to `next`, and its cross-block candidates are those that beat
    // `dist`. After the barrier the candidates are min-folded in scan
    // order, which is the order each block's next seeds arrive in.
    let nb = blocks.num_blocks();
    let mut order: Vec<u32> = (0..nb as u32).collect();
    order.sort_by_key(|&b| blocks.machine_of_block[b as usize]);
    let mut pending: Vec<Vec<VertexId>> = vec![Vec::new(); nb];
    pending[blocks.block_of[source as usize] as usize].push(source);
    let mut next = dist.clone();
    let mut writes: Vec<VertexId> = Vec::new();
    let mut outgoing: Vec<(VertexId, u32)> = Vec::new();
    loop {
        cluster.set_label("superstep");
        let mut ops = vec![0.0f64; machines];
        let mut sent = vec![0u64; machines];
        let mut recv = vec![0u64; machines];
        let mut msgs = vec![0u64; machines];
        let mut any = false;
        for &b in &order {
            let q = &mut pending[b as usize];
            if q.is_empty() {
                continue;
            }
            any = true;
            let mb = blocks.machine_of_block[b as usize] as usize;
            let mut head = 0;
            while head < q.len() {
                let v = q[head];
                head += 1;
                let d = next[v as usize];
                if d >= max_depth {
                    continue;
                }
                for &t in g.out_neighbors(v) {
                    ops[mb] += 1.0;
                    if blocks.block_of[t as usize] == b {
                        if next[t as usize] > d + 1 {
                            next[t as usize] = d + 1;
                            writes.push(t);
                            q.push(t);
                        }
                    } else if dist[t as usize] > d + 1 {
                        outgoing.push((t, d + 1));
                        let mt = machine_of[t as usize] as usize;
                        if mt != mb {
                            sent[mb] += 8;
                            recv[mt] += 8;
                            msgs[mb] += 1;
                        }
                    }
                }
            }
            q.clear();
        }
        if !any {
            break;
        }
        cluster.advance_compute(&ops, input.cluster.cores)?;
        cluster.set_label("shuffle");
        cluster.exchange(&sent, &recv, &msgs)?;
        cluster.set_label("barrier");
        cluster.barrier()?;
        recovery.at_barrier(cluster)?;
        // Intra-block writes first, then cross-block candidates min-folded
        // in scan order.
        for v in writes.drain(..) {
            dist[v as usize] = next[v as usize];
        }
        for (t, d) in outgoing.drain(..) {
            if d < dist[t as usize] {
                dist[t as usize] = d;
                next[t as usize] = d;
                pending[blocks.block_of[t as usize] as usize].push(t);
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

    // Phase 1a: local PageRank within each block (only intra-block edges),
    // one block after another, each in block order with its vertices'
    // out-neighbours in CSR order. A block reads and writes only its own
    // vertices' entries of `local_pr` and `incoming`.
    let mut local_pr = vec![1.0f64; n];
    {
        // Per-vertex intra-block out-degree.
        let mut intra_deg = vec![0u32; n];
        for (s, d) in g.edges() {
            if blocks.block_of[s as usize] == blocks.block_of[d as usize] {
                intra_deg[s as usize] += 1;
            }
        }
        let mut incoming = vec![0.0f64; n];
        let mut ops = vec![0.0f64; machines];
        for (b, verts) in blocks.blocks.iter().enumerate() {
            let mut block_ops = 0u64;
            for _ in 0..max_local_iters {
                for &v in verts {
                    let deg = intra_deg[v as usize];
                    if deg == 0 {
                        continue;
                    }
                    let share = local_pr[v as usize] / deg as f64;
                    for &t in g.out_neighbors(v) {
                        block_ops += 1;
                        if blocks.block_of[t as usize] as usize == b {
                            incoming[t as usize] += share;
                        }
                    }
                }
                let mut max_delta = 0.0f64;
                for &v in verts {
                    let new = damping + (1.0 - damping) * std::mem::take(&mut incoming[v as usize]);
                    max_delta = max_delta.max((new - local_pr[v as usize]).abs());
                    local_pr[v as usize] = new;
                    block_ops += 1;
                }
                if max_delta < local_tol {
                    break;
                }
            }
            ops[blocks.machine_of_block[b] as usize] += block_ops as f64;
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
    let part = EdgeCutPartition::from_assignment(machine_of.to_vec(), machines);
    let prog = PageRankProgram::with_init(pr, init);
    let cfg = BspConfig { cores_for_compute: input.cluster.cores, ..BspConfig::default() };
    Ok(run_bsp_pagerank(cluster, g, &part, &prog, &cfg)?.states)
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
    fn one_vertex_superstep_pins_the_block_phases_bits() {
        // Converged ranks forget their start; after one vertex superstep
        // they still carry the bits of `local_pr(v) * block_pr(b)`.
        let ds = dataset(DatasetKind::Twitter);
        let out =
            BlogelB::default().run(&input(&ds, Workload::PageRank(PageRankConfig::fixed(1)), 4));
        assert_eq!(fingerprint(&out), ("OK", 28, 4610788275270679099, 343785, 4946));
        let Some(WorkloadResult::Ranks(ranks)) = out.result else { panic!("no ranks") };
        let h = ranks.iter().fold(0u64, |h, r| h.rotate_left(5) ^ r.to_bits());
        assert_eq!(h, 17884391736953583830);
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

    /// `(status, supersteps, runtime bits, network bytes, messages)` of a run.
    fn fingerprint(out: &RunOutput) -> (&str, u64, u64, u64, u64) {
        let m = &out.metrics;
        (m.status.code(), m.iterations, out.runtime.to_bits(), m.network_bytes, m.messages)
    }

    fn first_source(g: &CsrGraph) -> VertexId {
        (0..g.num_vertices() as VertexId).find(|&v| g.out_degree(v) > 0).unwrap()
    }

    // The metadata-driven partitioners form blocks that need not be
    // connected, so a block may hold several local components, and a
    // machine holds many blocks, so a traversal's cross-block candidates
    // can meet an earlier block of the same machine. GVD blocks (the goldens
    // and the benchmark) have neither; the fingerprints below pin both.

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
        let src = first_source(&ds.1);
        let mut inp = input(&ds, Workload::Wcc, 4);
        inp.scale = ScaleInfo { paper_vertices: 683_000_000, paper_edges: 717_000_000 };
        let wcc = engine.run(&inp);
        assert_eq!(wcc.result, Some(WorkloadResult::Labels(reference::wcc(&ds.1))));
        assert_eq!(fingerprint(&wcc), ("OK", 17, 4609437584733917931, 150777, 5034));
        inp.workload = Workload::Sssp { source: src };
        let sssp = engine.run(&inp);
        assert_eq!(sssp.result, Some(WorkloadResult::Distances(reference::sssp(&ds.1, src))));
        assert_eq!(fingerprint(&sssp), ("OK", 16, 4609316313093433394, 139761, 4575));
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
        let src = first_source(&ds.1);
        let wcc = engine.run(&input(&ds, Workload::Wcc, 4));
        assert_eq!(wcc.result, Some(WorkloadResult::Labels(reference::wcc(&ds.1))));
        assert_eq!(fingerprint(&wcc), ("OK", 3, 4607737201056179318, 119112, 1036));
        let sssp = engine.run(&input(&ds, Workload::Sssp { source: src }, 4));
        assert_eq!(sssp.result, Some(WorkloadResult::Distances(reference::sssp(&ds.1, src))));
        assert_eq!(fingerprint(&sssp), ("OK", 4, 4607862372021307626, 166272, 3001));
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
