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

use crate::gather::{KHopEnd, Rounds};
use crate::hadoop::source_chunk_runs;
use crate::recovery::{Recovery, RecoveryModel};
use crate::{even_share, Engine, EngineInput, RunOutput};
use graphbench_algos::{Workload, WorkloadResult};
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

impl Engine for Vertica {
    fn short_name(&self) -> String {
        "V".into()
    }

    fn name(&self) -> String {
        "Vertica".into()
    }

    fn run(&self, input: &EngineInput<'_>) -> RunOutput {
        let mut cluster = Cluster::new(input.cluster.clone(), CostProfile::vertica());
        let notes = vec!["graph stored as segmented E(src,dst) and V(id,value) tables".to_string()];
        let outcome = execute(self, &mut cluster, input);
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
) -> Result<WorkloadResult, SimError> {
    let machines = cluster.machines();
    let g = input.graph;
    let n = g.num_vertices();
    let m = g.num_edges();

    cluster.begin_phase(Phase::Overhead);
    cluster.charge_startup()?;

    // Load: COPY the edge list into the segmented edge table (parse +
    // compress + write), and materialize V.
    cluster.begin_phase(Phase::Load);
    let edge_table_bytes = m * EDGE_ROW_BYTES;
    let vertex_table_bytes = n as u64 * VERTEX_ROW_BYTES;
    let raw = input.graph.text_bytes(graphbench_graph::format::GraphFormat::EdgeListFormat);
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
    let mut rounds = Rounds::new(g, input.workload, false, || source_chunk_runs(g, machines));
    while !rounds.done(KHopEnd::AtK) {
        ctx.charge_statement(cluster)?;
        // SELECT dst, agg(...) FROM V JOIN E ... GROUP BY dst. PageRank's SUM
        // is one partial per machine's source chunk, added in machine order
        // (see `source_chunk_runs`). HashMin over both directions joins the
        // union of E and reversed E. A traversal joins the small ACTIVE temp
        // table with E: the scan of E still happens, but only the frontier's
        // out-edges are emitted.
        let emitted = match input.workload {
            Workload::PageRank(_) => m,
            Workload::Wcc => 2 * m,
            _ => rounds.changed().unwrap_or_default().iter().map(|&v| g.out_degree(v)).sum(),
        };
        ctx.charge_join(cluster, emitted)?;
        cluster.set_label("join_scan");
        rounds.step();
        // Refresh V. Every rank changes, so the adaptive policy rebuilds. Each
        // machine scans its source chunk against its own view of V, so WCC's
        // `updated` counts every row a machine improved, as often as it
        // improved it (see `MinLabel::updated`). A traversal touches the new
        // wave's rows only (the update-in-place case, §2.6).
        ctx.charge_refresh(cluster, rounds.updated(machines))?;
        cluster.sample_trace();
    }

    // Save: export the final V table.
    cluster.begin_phase(Phase::Save);
    cluster.local_write(&even_share(vertex_table_bytes, machines))?;
    Ok(rounds.into_result())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScaleInfo;
    use graphbench_algos::reference;
    use graphbench_algos::workload::{PageRankConfig, StopCriterion};
    use graphbench_gen::{Dataset, DatasetKind, Scale};
    use graphbench_graph::VertexId;
    use graphbench_graph::{CsrGraph, EdgeList};
    use graphbench_sim::{ClusterSpec, EventKind};

    fn dataset() -> (EdgeList, CsrGraph) {
        dataset_of(DatasetKind::Twitter)
    }

    fn dataset_of(kind: DatasetKind) -> (EdgeList, CsrGraph) {
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

    /// `(status, supersteps, runtime bits, network bytes, messages)` of a run.
    fn fingerprint(out: &RunOutput) -> (&str, u64, u64, u64, u64) {
        let m = &out.metrics;
        (m.status.code(), m.iterations, out.runtime.to_bits(), m.network_bytes, m.messages)
    }

    #[test]
    fn road_network_runs_pin_the_traversal_and_wcc_charges() {
        // The road network's long diameter runs many statements: the
        // traversal's joins and in-place refreshes per wave, and WCC's
        // `updated` counts through the adaptive refresh.
        let ds = dataset_of(DatasetKind::Wrn);
        let src = (0..ds.1.num_vertices() as VertexId).find(|&v| ds.1.out_degree(v) > 0).unwrap();
        let sssp = Vertica::default().run(&input(&ds, Workload::Sssp { source: src }, 4));
        assert_eq!(sssp.result, Some(WorkloadResult::Distances(reference::sssp(&ds.1, src))));
        assert_eq!(fingerprint(&sssp), ("OK", 127, 4632697131294060791, 582137, 13806));
        let wcc = Vertica::default().run(&input(&ds, Workload::Wcc, 4));
        assert_eq!(wcc.result, Some(WorkloadResult::Labels(reference::wcc(&ds.1))));
        assert_eq!(fingerprint(&wcc), ("OK", 127, 4632701210049736983, 48694361, 13806));
    }

    #[test]
    fn in_place_wcc_refresh_pins_the_updated_count() {
        // Under `AlwaysUpdate` a round's refresh reads 2 × 4 KB per updated
        // row, so its IO is the `updated` count itself, where the adaptive
        // policy only sees it through `updated * 20 > n`.
        let ds = dataset();
        let machines = 4;
        let mut label: Vec<VertexId> = (0..ds.1.num_vertices() as VertexId).collect();
        let mut want = Vec::new();
        loop {
            let (next, updated) = crate::gather::tests::overlay_replay(&ds.1, &label, machines);
            want.push(updated * 2 * 4096);
            label = next;
            if updated == 0 {
                break;
            }
        }
        assert!(want.len() > 2, "{want:?}");
        let refresh = TableRefresh::AlwaysUpdate;
        let out = Vertica { refresh }.run(&input(&ds, Workload::Wcc, machines));
        assert_eq!(out.result.unwrap(), WorkloadResult::Labels(label));
        let got: Vec<u64> = out
            .journal
            .events()
            .iter()
            .filter(|e| e.label == "table_refresh" && e.kind == EventKind::LocalRead)
            .map(|e| e.disk_bytes)
            .collect();
        assert_eq!(got, want);
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
