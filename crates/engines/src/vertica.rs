//! Vertica as a graph engine (§2.6, §5.11).
//!
//! The graph lives in two relational tables — `E(src, dst)` segmented by
//! hash across machines and `V(id, value)` — and every iteration is a SQL
//! statement: join `V` with `E`, aggregate per destination, and either
//! rebuild `V` as a new table (sequential I/O; chosen when many values
//! change) or update in place. Traversal workloads keep the frontier in a
//! small temporary "active" table joined against `E` (the paper's
//! optimization list, §2.6).
//!
//! Cost signature (§5.11, Figures 12-13): memory footprint is tiny (a
//! columnar executor streams), but every iteration *scans and shuffles*:
//!
//! * the distributed join rehashes rows between machines, and each
//!   machine opens a data flow to every other machine, so per-iteration
//!   overhead grows with the cluster size;
//! * every iteration creates and drops temp tables — a catalog round
//!   across all nodes;
//! * the new `V` is written back to disk each iteration.
//!
//! Result: I/O-wait and network dominate, and the gap to native graph
//! systems widens as machines are added — the paper's refutation of the
//! "relational engines are competitive" claim.

use crate::exec;
use crate::recovery::{Recovery, RecoveryModel};
use crate::{even_share, Engine, EngineInput, RunOutput};
use graphbench_algos::workload::{PageRankConfig, StopCriterion};
use graphbench_algos::{Workload, WorkloadResult, UNREACHABLE};
use graphbench_graph::VertexId;
use graphbench_sim::{Cluster, CostProfile, Phase, SimError};

/// How the per-iteration vertex-table refresh is executed (§2.6): rebuild
/// the table sequentially and swap, or update rows in place. The paper
/// notes the right choice depends on the (hard to estimate) update count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TableRefresh {
    /// Rebuild when many rows change, update in place when few do —
    /// Vertica's recommended adaptive policy.
    #[default]
    Adaptive,
    /// Always create-new-table-and-swap (sequential I/O).
    AlwaysRebuild,
    /// Always update in place (random I/O, priced per touched row).
    AlwaysUpdate,
}

/// The Vertica relational engine.
#[derive(Debug, Clone, Default)]
pub struct Vertica {
    /// Vertex-table refresh policy (§2.6).
    pub refresh: TableRefresh,
}

/// Compressed columnar bytes per edge row on disk.
const EDGE_ROW_BYTES: u64 = 5;
/// Bytes per vertex-state row (id + value, RLE-compressed).
const VERTEX_ROW_BYTES: u64 = 10;
/// Catalog operation (create/drop/swap table): a synchronous round across
/// all nodes.
fn catalog_op_secs(machines: usize) -> f64 {
    0.05 + 0.02 * machines as f64
}
/// Per-iteration flow setup for the distributed join: each machine opens a
/// connection to every other machine.
fn shuffle_setup_secs(machines: usize) -> f64 {
    0.005 * machines as f64
}
/// Split `n` items into exactly `machines` contiguous chunks — the unit of
/// host-parallel fan-out for the table scans below. Boundaries depend only
/// on the simulated machine count, never on the host thread count.
fn chunk_range(c: usize, machines: usize, n: usize) -> (usize, usize) {
    (c * n / machines, (c + 1) * n / machines)
}

impl Engine for Vertica {
    fn short_name(&self) -> String {
        "V".into()
    }

    fn name(&self) -> String {
        "Vertica".into()
    }

    fn run(&self, input: &EngineInput<'_>) -> RunOutput {
        let mut cluster = Cluster::new(input.cluster.clone(), CostProfile::vertica());
        let mut notes =
            vec!["graph stored as segmented E(src,dst) and V(id,value) tables".to_string()];
        let outcome = execute(self, &mut cluster, input, &mut notes);
        crate::util::output_from(cluster, outcome, notes)
    }
}

struct SqlCtx {
    machines: usize,
    cores: u32,
    n: usize,
    edge_table_bytes: u64,
    vertex_table_bytes: u64,
    /// Vertex-table refresh policy (§2.6).
    refresh: TableRefresh,
    /// Query-restart recovery anchored at execution start (Table 1 lists no
    /// graph-workload fault tolerance for Vertica).
    recovery: Recovery,
}

impl SqlCtx {
    /// One iteration's fixed overhead: statement planning, temp-table
    /// catalog churn, and join flow setup — all growing with cluster size.
    /// A node loss mid-statement aborts and restarts the whole query (the
    /// paper's Table 1 lists no graph-workload fault tolerance for
    /// Vertica): the stall replays everything since execution began.
    fn charge_statement(&mut self, cluster: &mut Cluster) -> Result<(), SimError> {
        cluster.set_label("catalog");
        let fixed = (2.0 * catalog_op_secs(self.machines) + shuffle_setup_secs(self.machines))
            * cluster.spec().superstep_scale;
        cluster.advance_network_wait(&vec![fixed; self.machines])?;
        self.recovery.at_barrier(cluster)?;
        cluster.set_label("barrier");
        cluster.barrier()
    }

    /// Refresh the vertex table after `updated_rows` changed (§2.6): the
    /// rebuild path writes the whole table sequentially; the in-place path
    /// pays random I/O per touched row (modelled as a 4 KB block read+write
    /// per row, the columnar random-access penalty). The adaptive policy
    /// rebuilds once more than ~5% of rows change.
    fn charge_refresh(&self, cluster: &mut Cluster, updated_rows: u64) -> Result<(), SimError> {
        let rebuild = match self.refresh {
            TableRefresh::AlwaysRebuild => true,
            TableRefresh::AlwaysUpdate => false,
            TableRefresh::Adaptive => updated_rows * 20 > self.n as u64,
        };
        cluster.set_label("table_refresh");
        if rebuild {
            cluster.local_write(&even_share(self.vertex_table_bytes, self.machines))?;
        } else {
            // Random access: a block read + write per touched row.
            let bytes = updated_rows * 2 * 4096;
            cluster.local_read(&even_share(bytes, self.machines))?;
            cluster.local_write(&even_share(bytes, self.machines))?;
        }
        Ok(())
    }

    /// Join V (or the active table) with E: scan the edge table, shuffle
    /// `emitted` rows of `row_bytes` to their aggregation machines, write
    /// the rebuilt vertex table.
    fn charge_join(&self, cluster: &mut Cluster, emitted_rows: u64) -> Result<(), SimError> {
        // Scan E + V from disk (columnar, compressed); one executed
        // iteration stands in for `superstep_scale` paper iterations.
        let sscale = cluster.spec().superstep_scale;
        cluster.set_label("join_scan");
        let scan = ((self.edge_table_bytes + self.vertex_table_bytes) as f64 * sscale) as u64;
        cluster.local_read(&even_share(scan, self.machines))?;
        // Join + aggregate CPU.
        let ops = even_share(emitted_rows + self.n as u64, self.machines)
            .iter()
            .map(|&x| x as f64)
            .collect::<Vec<_>>();
        cluster.advance_compute(&ops, self.cores)?;
        // Rehash shuffle with sender-side partial aggregation: each machine
        // moves at most one partial per aggregation key per destination, so
        // per-machine volume floors at the key count — the all-to-all limit
        // every machine-count increase runs into (§5.11). The join rehash
        // and the GROUP BY exchange each move the rows once.
        let keys = self.n as u64;
        let per_machine_rows = (emitted_rows / self.machines as u64).min(keys);
        let per_machine_bytes = per_machine_rows * 24;
        cluster.set_label("shuffle");
        cluster.exchange(
            &vec![per_machine_bytes; self.machines],
            &vec![per_machine_bytes; self.machines],
            &even_share(self.machines as u64 * self.machines as u64, self.machines),
        )?;
        Ok(())
    }
}

fn execute(
    engine: &Vertica,
    cluster: &mut Cluster,
    input: &EngineInput<'_>,
    _notes: &mut Vec<String>,
) -> Result<WorkloadResult, SimError> {
    let machines = cluster.machines();
    let n = input.graph.num_vertices();
    let m = input.graph.num_edges();

    cluster.begin_phase(Phase::Overhead);
    cluster.charge_startup()?;

    // Load: COPY the edge list into the segmented edge table (parse +
    // compress + write), and materialize V.
    cluster.begin_phase(Phase::Load);
    let edge_table_bytes = m * EDGE_ROW_BYTES;
    let vertex_table_bytes = n as u64 * VERTEX_ROW_BYTES;
    let raw =
        crate::dataset_bytes(input.edges, graphbench_graph::format::GraphFormat::EdgeListFormat);
    cluster.local_read(&even_share(raw, machines))?;
    // Segmentation shuffle: rows move to their hash machine.
    let moved = raw - raw / machines as u64;
    cluster.exchange(
        &even_share(moved, machines),
        &even_share(moved, machines),
        &even_share(m, machines),
    )?;
    let parse_ops = even_share(m, machines).iter().map(|&x| x as f64 * 3.0).collect::<Vec<_>>();
    cluster.advance_compute(&parse_ops, input.cluster.cores)?;
    cluster.local_write(&even_share(edge_table_bytes + vertex_table_bytes, machines))?;
    // Executor working memory only: vectorized row buffers sized to a
    // fraction of the local table share (capped per core) — far below what
    // an in-memory graph system holds resident.
    let share = (edge_table_bytes + vertex_table_bytes) / machines as u64;
    let buffer = (share / 4).min((input.cluster.cores as u64) * (256 << 10)).max(4 << 10);
    cluster.alloc_all(&vec![buffer; machines])?;
    cluster.sample_trace();

    cluster.begin_phase(Phase::Execute);
    let mut ctx = SqlCtx {
        machines,
        cores: input.cluster.cores,
        n,
        edge_table_bytes,
        vertex_table_bytes,
        refresh: engine.refresh,
        recovery: Recovery::new(cluster, RecoveryModel::QueryRestart),
    };
    let g = input.graph;
    let result = match input.workload {
        Workload::PageRank(pr) => {
            WorkloadResult::Ranks(sql_pagerank(cluster, &mut ctx, input, pr)?)
        }
        Workload::Wcc => WorkloadResult::Labels(sql_wcc(cluster, &mut ctx, input)?),
        Workload::Sssp { source } => {
            WorkloadResult::Distances(sql_traversal(cluster, &mut ctx, input, source, u32::MAX)?)
        }
        Workload::KHop { source, k } => {
            WorkloadResult::Distances(sql_traversal(cluster, &mut ctx, input, source, k)?)
        }
    };
    let _ = g;

    // Save: export the final V table.
    cluster.begin_phase(Phase::Save);
    cluster.local_write(&even_share(vertex_table_bytes, machines))?;
    Ok(result)
}

fn sql_pagerank(
    cluster: &mut Cluster,
    ctx: &mut SqlCtx,
    input: &EngineInput<'_>,
    cfg: PageRankConfig,
) -> Result<Vec<f64>, SimError> {
    let g = input.graph;
    let n = g.num_vertices();
    let mut ranks = vec![1.0f64; n];
    let mut incoming = vec![0.0f64; n];
    let (tol, max_iters) = match cfg.stop {
        StopCriterion::Tolerance(t) => (t, u32::MAX),
        StopCriterion::Iterations(k) => (0.0, k),
    };
    let mg = crate::hadoop::MrGather::build(g);
    let mut iter = 0u32;
    loop {
        if iter >= max_iters {
            break;
        }
        ctx.charge_statement(cluster)?;
        // SELECT dst, SUM(rank/outdeg) FROM V JOIN E ... GROUP BY dst, then
        // refresh V (every rank changes, so the adaptive policy rebuilds).
        // The aggregation is chunked over degree-aware destination windows:
        // each task folds one SUM partial per contiguous source chunk and
        // adds the partials in chunk order, reproducing the serial
        // hierarchical fold bit for bit at any chunk x thread combination.
        ctx.charge_join(cluster, g.num_edges())?;
        cluster.set_label("join_scan");
        let ranks_r: &[f64] = &ranks;
        let machines = ctx.machines;
        let mut tasks: Vec<(usize, &mut [f64])> = Vec::new();
        let mut rest: &mut [f64] = &mut incoming;
        for &(s, e) in &mg.plan {
            let (window, tail) = rest.split_at_mut(e - s);
            tasks.push((s, window));
            rest = tail;
        }
        exec::run_chunks(&mut tasks, |_, task| {
            let base = task.0;
            for (i, acc) in task.1.iter_mut().enumerate() {
                *acc = mg.incoming_of(base + i, g, ranks_r, machines, n);
            }
        });
        drop(tasks);
        let max_delta = crate::util::pagerank_apply(&mut ranks, &incoming, cfg.damping);
        ctx.charge_refresh(cluster, n as u64)?;
        cluster.sample_trace();
        iter += 1;
        if tol > 0.0 && max_delta < tol {
            break;
        }
    }
    Ok(ranks)
}

/// Pooled scratch for the WCC min-join: degree-aware source sub-spans
/// grouped by simulated machine chunk (`updated` counts reset per machine),
/// per-task candidate buckets, the reused `next` labels, and an epoch-
/// stamped overlay that replays each machine chunk's evolving private label
/// copy without cloning the label vector per machine per iteration.
struct WccScratch {
    /// `(machine, lo, hi)` source sub-spans in scan order.
    tasks: Vec<(usize, usize, usize)>,
    buckets: Vec<Vec<(VertexId, VertexId)>>,
    next: Vec<VertexId>,
    ovl_val: Vec<VertexId>,
    ovl_stamp: Vec<u32>,
    epoch: u32,
}

impl WccScratch {
    fn build(g: &graphbench_graph::CsrGraph, machines: usize) -> WccScratch {
        let n = g.num_vertices();
        let mut tasks = Vec::new();
        for c in 0..machines {
            let (lo, hi) = chunk_range(c, machines, n);
            let weights: Vec<u64> =
                (lo..hi).map(|v| 1 + g.out_degree(v as VertexId) as u64).collect();
            for &(s, e) in &exec::weighted_spans(&weights, exec::chunk_size()) {
                tasks.push((c, lo + s, lo + e));
            }
        }
        let buckets = (0..tasks.len()).map(|_| Vec::new()).collect();
        WccScratch {
            tasks,
            buckets,
            next: Vec::new(),
            ovl_val: vec![0; n],
            ovl_stamp: vec![0; n],
            epoch: 0,
        }
    }
}

fn sql_wcc(
    cluster: &mut Cluster,
    ctx: &mut SqlCtx,
    input: &EngineInput<'_>,
) -> Result<Vec<VertexId>, SimError> {
    let g = input.graph;
    let n = g.num_vertices();
    let mut label: Vec<VertexId> = (0..n as VertexId).collect();
    let mut ws = WccScratch::build(g, ctx.machines);
    loop {
        ctx.charge_statement(cluster)?;
        // HashMin over both directions needs a union of E and reversed E.
        // Chunk tasks scan disjoint degree-aware source spans and emit
        // `(vertex, smaller label)` candidates into pooled buckets; a
        // serial replay in fixed task order then min-folds them (order-free,
        // so the labels match the serial path exactly) while the epoch-
        // stamped overlay recounts each machine chunk's `updated` figure
        // against its own evolving view, as the old private copies did.
        ctx.charge_join(cluster, 2 * g.num_edges())?;
        cluster.set_label("join_scan");
        let label_r: &[VertexId] = &label;
        let mut tasks: Vec<((usize, usize, usize), &mut Vec<(VertexId, VertexId)>)> =
            ws.tasks.iter().copied().zip(ws.buckets.iter_mut()).collect();
        exec::run_chunks(&mut tasks, |_, t| {
            let ((_, lo, hi), ref mut bucket) = *t;
            bucket.clear();
            for s in lo..hi {
                for &d in g.out_neighbors(s as VertexId) {
                    if label_r[s] < label_r[d as usize] {
                        bucket.push((d, label_r[s]));
                    }
                    if label_r[d as usize] < label_r[s] {
                        bucket.push((s as VertexId, label_r[d as usize]));
                    }
                }
            }
        });
        ws.next.clear();
        ws.next.extend_from_slice(label_r);
        let mut updated = 0u64;
        let mut cur_machine = usize::MAX;
        for (key, bucket) in &tasks {
            if key.0 != cur_machine {
                cur_machine = key.0;
                if ws.epoch == u32::MAX {
                    ws.ovl_stamp.fill(0);
                    ws.epoch = 0;
                }
                ws.epoch += 1;
            }
            for &(v, l) in bucket.iter() {
                let vi = v as usize;
                let cur = if ws.ovl_stamp[vi] == ws.epoch { ws.ovl_val[vi] } else { label_r[vi] };
                if l < cur {
                    ws.ovl_val[vi] = l;
                    ws.ovl_stamp[vi] = ws.epoch;
                    updated += 1;
                }
                if l < ws.next[vi] {
                    ws.next[vi] = l;
                }
            }
        }
        drop(tasks);
        std::mem::swap(&mut label, &mut ws.next);
        ctx.charge_refresh(cluster, updated)?;
        cluster.sample_trace();
        if updated == 0 {
            break;
        }
    }
    Ok(label)
}

fn sql_traversal(
    cluster: &mut Cluster,
    ctx: &mut SqlCtx,
    input: &EngineInput<'_>,
    source: VertexId,
    bound: u32,
) -> Result<Vec<u32>, SimError> {
    let g = input.graph;
    let n = g.num_vertices();
    let mut dist = vec![UNREACHABLE; n];
    dist[source as usize] = 0;
    let mut frontier = vec![source];
    let mut depth = 0u32;
    let mut buckets: Vec<Vec<VertexId>> = Vec::new();
    while !frontier.is_empty() && depth < bound {
        ctx.charge_statement(cluster)?;
        // Join the small ACTIVE temp table with E: the scan of E still
        // happens, but only frontier out-edges are emitted and the vertex
        // table refresh touches few rows (the update-in-place case, §2.6).
        let emitted: u64 = frontier.iter().map(|&v| g.out_degree(v)).sum();
        ctx.charge_join(cluster, emitted)?;
        // Chunk tasks expand degree-aware frontier spans against the frozen
        // distance table; candidates apply in span order, which reproduces
        // the serial visit order exactly (first touch wins): emission sees
        // only frozen state, so the flat candidate sequence is the frontier
        // scan order regardless of where span boundaries fall.
        cluster.set_label("join_scan");
        let weights: Vec<u64> = frontier.iter().map(|&v| 1 + g.out_degree(v) as u64).collect();
        let spans = exec::weighted_spans(&weights, exec::chunk_size());
        while buckets.len() < spans.len() {
            buckets.push(Vec::new());
        }
        let dist_r: &[u32] = &dist;
        let mut tasks: Vec<(&[VertexId], &mut Vec<VertexId>)> =
            spans.iter().map(|&(s, e)| &frontier[s..e]).zip(buckets.iter_mut()).collect();
        exec::run_chunks(&mut tasks, |_, t| {
            let (span, ref mut found) = *t;
            found.clear();
            for &v in span {
                for &t2 in g.out_neighbors(v) {
                    if dist_r[t2 as usize] == UNREACHABLE {
                        found.push(t2);
                    }
                }
            }
        });
        let mut next = Vec::new();
        for (_, found) in &tasks {
            for &t2 in found.iter() {
                if dist[t2 as usize] == UNREACHABLE {
                    dist[t2 as usize] = depth + 1;
                    next.push(t2);
                }
            }
        }
        drop(tasks);
        ctx.charge_refresh(cluster, next.len() as u64)?;
        cluster.sample_trace();
        frontier = next;
        depth += 1;
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

    fn dataset() -> (EdgeList, CsrGraph) {
        let d = Dataset::generate(DatasetKind::Twitter, Scale { base: 400 }, 3);
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
    fn vertica_results_match_reference() {
        let ds = dataset();
        let pr = PageRankConfig {
            stop: StopCriterion::Tolerance(0.01),
            ..PageRankConfig::paper_exact()
        };
        let out = Vertica::default().run(&input(&ds, Workload::PageRank(pr), 4));
        assert!(out.metrics.status.is_ok());
        let (want, _) = reference::pagerank(&ds.1, &pr);
        match out.result.unwrap() {
            WorkloadResult::Ranks(r) => {
                for (a, b) in r.iter().zip(&want) {
                    assert!((a - b).abs() < 1e-9);
                }
            }
            other => panic!("{other:?}"),
        }
        let wcc = Vertica::default().run(&input(&ds, Workload::Wcc, 4));
        assert_eq!(wcc.result.unwrap(), WorkloadResult::Labels(reference::wcc(&ds.1)));
        let sssp = Vertica::default().run(&input(&ds, Workload::Sssp { source: 0 }, 4));
        assert_eq!(sssp.result.unwrap(), WorkloadResult::Distances(reference::sssp(&ds.1, 0)));
        let khop = Vertica::default().run(&input(&ds, Workload::khop3(0), 4));
        assert_eq!(khop.result.unwrap(), WorkloadResult::Distances(reference::khop(&ds.1, 0, 3)));
    }

    #[test]
    fn refresh_policy_matches_workload_shape() {
        use super::TableRefresh;
        let ds = dataset();
        // PageRank touches every row: rebuilding beats random updates.
        let pr = Workload::PageRank(PageRankConfig::fixed(10));
        let rebuild = Vertica { refresh: TableRefresh::AlwaysRebuild }.run(&input(&ds, pr, 8));
        let update = Vertica { refresh: TableRefresh::AlwaysUpdate }.run(&input(&ds, pr, 8));
        let adaptive = Vertica::default().run(&input(&ds, pr, 8));
        assert!(
            rebuild.metrics.total_time() < update.metrics.total_time(),
            "rebuild {} vs update {}",
            rebuild.metrics.total_time(),
            update.metrics.total_time()
        );
        // Adaptive tracks the better choice.
        assert!(adaptive.metrics.total_time() <= rebuild.metrics.total_time() * 1.01);
        // K-hop touches few rows: in-place beats rebuilding.
        let kh = Workload::khop3(0);
        let rebuild_k = Vertica { refresh: TableRefresh::AlwaysRebuild }.run(&input(&ds, kh, 8));
        let update_k = Vertica { refresh: TableRefresh::AlwaysUpdate }.run(&input(&ds, kh, 8));
        assert_eq!(rebuild_k.result, update_k.result);
        assert!(
            update_k.metrics.total_time() <= rebuild_k.metrics.total_time() * 1.05,
            "update {} vs rebuild {}",
            update_k.metrics.total_time(),
            rebuild_k.metrics.total_time()
        );
    }

    #[test]
    fn per_iteration_overhead_grows_with_cluster_size() {
        let ds = dataset();
        let w = Workload::PageRank(PageRankConfig::fixed(10));
        let small = Vertica::default().run(&input(&ds, w, 8));
        let large = Vertica::default().run(&input(&ds, w, 64));
        assert!(
            large.metrics.phases.execute > small.metrics.phases.execute,
            "64 machines {} should be slower than 8 machines {} (§5.11)",
            large.metrics.phases.execute,
            small.metrics.phases.execute
        );
    }

    #[test]
    fn memory_footprint_is_small_but_io_is_large() {
        let ds = dataset();
        let w = Workload::PageRank(PageRankConfig::fixed(10));
        let v = Vertica::default().run(&input(&ds, w, 8));
        let bv = crate::blogel::BlogelV.run(&input(&ds, w, 8));
        assert!(
            v.metrics.max_machine_memory() < bv.metrics.max_machine_memory(),
            "Vertica {} vs Blogel-V {}",
            v.metrics.max_machine_memory(),
            bv.metrics.max_machine_memory()
        );
        assert!(
            v.metrics.cpu.io_wait_avg > bv.metrics.cpu.io_wait_avg,
            "Vertica io {} vs Blogel-V io {}",
            v.metrics.cpu.io_wait_avg,
            bv.metrics.cpu.io_wait_avg
        );
    }
}
