//! Hadoop MapReduce and HaLoop (§2.4, §2.5.1).
//!
//! Disk-based data-parallel execution: every iteration is a full
//! map → sort/shuffle → reduce job over the *entire* dataset, because
//! MapReduce has no graph index to confine work to the active frontier.
//! Records stream through mappers and reducers, so resident memory is tiny —
//! Hadoop never OOMs and is the only option when graphs exceed cluster
//! memory (§5.9, §5.10) — but each iteration pays
//!
//! * a job submission/teardown round with the JobTracker,
//! * an HDFS read of the adjacency + state, a sort of the emitted records,
//!   a network shuffle, and a replicated HDFS write.
//!
//! **HaLoop** adds the paper's loop optimizations (§2.5.1): the loop-
//! invariant adjacency is cached on local disk after iteration 1 (no HDFS
//! re-read, no structure shuffle or rewrite), tasks are co-scheduled with
//! their cached shards, and fixpoint evaluation uses a local cache. The
//! paper found the resulting speed-up below the advertised 2× (§5.10) and
//! hit a bug where mapper output is deleted before reducers finish on 64-
//! and 128-machine clusters — reproduced here as the `SHFL` failure.

use crate::gather::{source_chunk, KHopEnd, Rounds, RunGather};
use crate::recovery::{Recovery, RecoveryModel};
use crate::{even_share, result_bytes, Engine, EngineInput, RunOutput};
use graphbench_algos::{Workload, WorkloadResult};
use graphbench_graph::format::GraphFormat;
use graphbench_graph::VertexId;
use graphbench_sim::{Cluster, CostProfile, Phase, SimError};

/// Plain Hadoop MapReduce.
#[derive(Debug, Clone, Default)]
pub struct Hadoop;

/// HaLoop: Hadoop plus loop-aware caching and scheduling.
#[derive(Debug, Clone, Default)]
pub struct HaLoop;

impl Engine for Hadoop {
    fn short_name(&self) -> String {
        "HD".into()
    }

    fn name(&self) -> String {
        "Hadoop".into()
    }

    fn run(&self, input: &EngineInput<'_>) -> RunOutput {
        let mut cluster = Cluster::new(input.cluster.clone(), CostProfile::mapreduce());
        let outcome = run_mapreduce(&mut cluster, input, false);
        crate::util::output_from(cluster, outcome, Vec::new())
    }
}

impl Engine for HaLoop {
    fn short_name(&self) -> String {
        "HL".into()
    }

    fn name(&self) -> String {
        "HaLoop".into()
    }

    fn run(&self, input: &EngineInput<'_>) -> RunOutput {
        let mut cluster = Cluster::new(input.cluster.clone(), CostProfile::mapreduce());
        let notes =
            vec!["HaLoop keeps many files open; raised the OS nofile limit (§2.5.1)".to_string()];
        let outcome = run_mapreduce(&mut cluster, input, true);
        crate::util::output_from(cluster, outcome, notes)
    }
}

/// Record counts and byte sizes for one MR iteration of a workload.
struct IterationShape {
    /// Records entering the mappers (beyond the cached adjacency).
    map_records: u64,
    /// Records emitted into the shuffle.
    shuffle_records: u64,
    /// Bytes per shuffled record on the wire and in the sort.
    record_bytes: u64,
    /// State bytes written back to HDFS at iteration end.
    state_bytes: u64,
}

fn run_mapreduce(
    cluster: &mut Cluster,
    input: &EngineInput<'_>,
    haloop: bool,
) -> Result<WorkloadResult, SimError> {
    let machines = cluster.machines();
    let g = input.graph;
    let n = g.num_vertices();
    let graph_bytes = g.text_bytes(GraphFormat::Adj);
    let state_bytes = n as u64 * 12;

    cluster.begin_phase(Phase::Overhead);
    cluster.charge_startup()?;

    // "Load" for an MR system is just seeding the initial state file; the
    // graph stays in HDFS and is re-read every iteration.
    cluster.begin_phase(Phase::Load);
    cluster.hdfs_write(&even_share(state_bytes, machines))?;
    // Streaming buffers only: spill buffer + reduce-side merge buffer.
    let buffers = vec![4 << 10; machines];
    cluster.alloc_all(&buffers)?;
    cluster.sample_trace();

    cluster.begin_phase(Phase::Execute);
    // Every job maps every vertex and shuffles every edge: MapReduce cannot
    // confine a traversal's work to its frontier, which is what makes MR
    // traversals on large-diameter graphs hopeless (§5.8). HashMin emits
    // the label along both edge directions (the MR implementation
    // materializes the reverse edges in its first iteration).
    let shape = IterationShape {
        map_records: n as u64,
        shuffle_records: g.num_edges() * if input.workload == Workload::Wcc { 2 } else { 1 },
        record_bytes: if matches!(input.workload, Workload::PageRank(_)) { 12 } else { 8 },
        state_bytes,
    };
    let mut recovery = Recovery::new(cluster, RecoveryModel::TaskReexecution);
    let mut rounds = Rounds::new(g, input.workload, false, || source_chunk_runs(g, machines));
    while !rounds.done(KHopEnd::AtK) {
        charge_iteration(
            cluster,
            &mut recovery,
            machines,
            input.cluster.cores,
            haloop,
            u64::from(rounds.round()),
            graph_bytes,
            &shape,
        )?;
        // The reduce: PageRank's sums (see `source_chunk_runs`), HashMin's
        // least label along both edge directions, or a traversal's wave,
        // which is all the relaxation of every edge improves (see `expand`).
        cluster.set_label("reduce");
        rounds.step();
    }

    cluster.begin_phase(Phase::Save);
    cluster.hdfs_write(&even_share(result_bytes(n as u64), machines))?;
    cluster.free_all(&buffers);
    Ok(rounds.into_result())
}

/// Charge one MapReduce job executing one workload iteration.
#[allow(clippy::too_many_arguments)]
fn charge_iteration(
    cluster: &mut Cluster,
    recovery: &mut Recovery,
    machines: usize,
    cores: u32,
    haloop: bool,
    iteration: u64,
    graph_bytes: u64,
    shape: &IterationShape,
) -> Result<(), SimError> {
    // HaLoop's mapper-output bug: on large clusters, map output is deleted
    // before all reducers consume it after a few iterations (§5.10).
    if haloop && machines >= 64 && iteration >= 3 {
        return Err(SimError::Shuffle { iteration });
    }
    // One executed iteration stands in for `superstep_scale` paper
    // iterations on diameter-compressed datasets: every per-iteration cost
    // (job submission, I/O, shuffle) is multiplied accordingly.
    let sscale = cluster.spec().superstep_scale;
    let scale_bytes =
        |v: Vec<u64>| -> Vec<u64> { v.into_iter().map(|b| (b as f64 * sscale) as u64).collect() };

    // Job submission/scheduling round (smaller than framework start-up).
    cluster.set_label("job_submit");
    let submit = (2.0 + 0.02 * machines as f64) * sscale;
    cluster.advance_network_wait(&vec![submit; machines])?;
    recovery.begin_iteration(cluster);
    cluster.set_label("map");

    // Map input: HaLoop reads the cached adjacency from local disk after
    // the first iteration; Hadoop re-reads HDFS every time.
    if haloop && iteration > 0 {
        cluster.local_read(&scale_bytes(even_share(graph_bytes + shape.state_bytes, machines)))?;
    } else {
        cluster.hdfs_read(&scale_bytes(even_share(graph_bytes + shape.state_bytes, machines)))?;
        if haloop {
            // Populate the local loop-invariant cache.
            cluster.local_write(&even_share(graph_bytes, machines))?;
        }
    }
    // Map + sort + reduce CPU: per-record costs, sort is records·log(run).
    let per_machine_records = (shape.map_records + shape.shuffle_records) / machines as u64 + 1;
    let sort_factor = (per_machine_records as f64).log2().max(1.0);
    let ops_total = shape.map_records as f64
        + shape.shuffle_records as f64 * (1.0 + sort_factor)
        + shape.map_records as f64; // reduce side
    let ops = even_share(ops_total as u64, machines)
        .iter()
        .map(|&x| x as f64 * sscale)
        .collect::<Vec<_>>();
    cluster.advance_compute(&ops, cores)?;

    // Shuffle: emitted records hash to reducers; (M-1)/M cross the network.
    // Hadoop also shuffles the adjacency passthrough; HaLoop co-schedules
    // reducers with cached shards and shuffles only the new state.
    cluster.set_label("shuffle");
    let mut shuffle_bytes = shape.shuffle_records * shape.record_bytes;
    if !haloop {
        shuffle_bytes += graph_bytes;
    }
    let moved = shuffle_bytes - shuffle_bytes / machines as u64;
    cluster.exchange(
        &scale_bytes(even_share(moved, machines)),
        &scale_bytes(even_share(moved, machines)),
        &scale_bytes(even_share(shape.shuffle_records, machines)),
    )?;
    // Spill the shuffle through local disk (map-side write + reduce-side
    // read), the other half of Hadoop's I/O-bound profile.
    cluster.local_write(&scale_bytes(even_share(shuffle_bytes, machines)))?;
    cluster.local_read(&scale_bytes(even_share(shuffle_bytes, machines)))?;

    // Iteration output: new state to HDFS; Hadoop rewrites the passthrough
    // graph as well.
    cluster.set_label("hdfs_write");
    let mut out_bytes = shape.state_bytes;
    if !haloop {
        out_bytes += graph_bytes;
    }
    cluster.hdfs_write(&scale_bytes(even_share(out_bytes, machines)))?;
    // Fixpoint evaluation: HaLoop compares against a locally cached copy;
    // Hadoop re-reads the previous state from HDFS.
    cluster.set_label("fixpoint");
    if haloop {
        cluster.local_read(&scale_bytes(even_share(shape.state_bytes, machines)))?;
    } else {
        cluster.hdfs_read(&scale_bytes(even_share(shape.state_bytes, machines)))?;
    }
    cluster.set_label("barrier");
    cluster.barrier()?;
    // Fault tolerance by task re-execution (Table 1): a dead worker only
    // loses its slice of the current iteration, which the survivors re-run
    // — far cheaper than rolling a whole in-memory computation back. No
    // state snapshot is needed: iteration output already sits in HDFS.
    recovery.at_barrier(cluster)?;
    cluster.sample_trace();
    Ok(())
}

/// Reduce-side gather for PageRank-style aggregations (shared with the
/// Vertica engine, whose join uses the same per-machine scan), built once
/// per run (the graph is loop-invariant): each destination's sources in
/// ascending order, exactly the order an ascending source scan delivers
/// contributions, cut into [`source_chunk`] runs. Each run folds one
/// partial from 0.0 and the partials add in source-chunk order, the serial
/// per-machine scan's hierarchical f64 fold (see [`RunGather`]).
pub(crate) fn source_chunk_runs(g: &graphbench_graph::CsrGraph, machines: usize) -> RunGather {
    let n = g.num_vertices();
    RunGather::build(n, machines, |c| {
        source_chunk(c, machines, n)
            .flat_map(|s| g.out_neighbors(s as VertexId).iter().map(move |&t| (s as VertexId, t)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exec, ScaleInfo};
    use graphbench_algos::reference;
    use graphbench_algos::workload::{PageRankConfig, StopCriterion};
    use graphbench_gen::{Dataset, DatasetKind, Scale};
    use graphbench_graph::rng::for_each_seed;
    use graphbench_graph::{CsrGraph, EdgeList};
    use graphbench_sim::ClusterSpec;

    /// The per-edge fold [`source_chunk_runs`] replaces, kept as its
    /// reference: `t`'s ascending sources `nbrs`, each source's chunk found
    /// by integer division and its `rank / out-degree` divided per edge.
    fn incoming_of(nbrs: &[VertexId], g: &CsrGraph, ranks: &[f64], machines: usize) -> f64 {
        let n = g.num_vertices();
        let mut sum = 0.0f64;
        let mut k = 0usize;
        while k < nbrs.len() {
            let s0 = nbrs[k] as usize;
            let mut c = s0 * machines / n;
            while c * n / machines > s0 {
                c -= 1;
            }
            while (c + 1) * n / machines <= s0 {
                c += 1;
            }
            let hi = ((c + 1) * n / machines) as VertexId;
            let mut pm = 0.0f64;
            while k < nbrs.len() && nbrs[k] < hi {
                let s = nbrs[k];
                pm += ranks[s as usize] / g.out_degree(s) as f64;
                k += 1;
            }
            sum += pm;
        }
        sum
    }

    #[test]
    fn gather_equals_the_per_edge_fold_bit_for_bit() {
        let _guard = exec::TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        exec::set_threads(4);
        for_each_seed(32, |_, rng| {
            let g = crate::gather::tests::gather_graph(rng);
            let n = g.num_vertices();
            let mut in_src: Vec<Vec<VertexId>> = vec![Vec::new(); n];
            for s in 0..n as VertexId {
                for &t in g.out_neighbors(s) {
                    in_src[t as usize].push(s);
                }
            }
            let ranks: Vec<f64> = (0..n).map(|_| rng.f64() * 3.0).collect();
            for machines in [1, 2, 3, 16, 64, n + 3] {
                for chunk in [1, 97, 4096] {
                    exec::set_chunk_size(chunk);
                    let mut runs = source_chunk_runs(&g, machines);
                    let mut got = vec![f64::NAN; n];
                    runs.gather(&ranks, |s| g.out_degree(s as VertexId), None, &mut got);
                    for (t, got) in got.iter().enumerate() {
                        let want = incoming_of(&in_src[t], &g, &ranks, machines);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "vertex {t} of {n}, machines {machines}, chunk {chunk}"
                        );
                    }
                }
            }
        });
        exec::set_chunk_size(4096);
        exec::set_threads(1);
    }

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

    #[test]
    fn hadoop_results_match_reference() {
        let ds = dataset(DatasetKind::Twitter);
        let pr = PageRankConfig {
            stop: StopCriterion::Tolerance(0.01),
            ..PageRankConfig::paper_exact()
        };
        let out = Hadoop.run(&input(&ds, Workload::PageRank(pr), 4, 1 << 30));
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
        let wcc = Hadoop.run(&input(&ds, Workload::Wcc, 4, 1 << 30));
        assert_eq!(wcc.result.unwrap(), WorkloadResult::Labels(reference::wcc(&ds.1)));
        let sssp = Hadoop.run(&input(&ds, Workload::Sssp { source: 0 }, 4, 1 << 30));
        assert_eq!(sssp.result.unwrap(), WorkloadResult::Distances(reference::sssp(&ds.1, 0)));
        let khop = Hadoop.run(&input(&ds, Workload::khop3(0), 4, 1 << 30));
        assert_eq!(khop.result.unwrap(), WorkloadResult::Distances(reference::khop(&ds.1, 0, 3)));
    }

    /// `(status, supersteps, runtime bits, network bytes, messages)` of a run.
    fn fingerprint(out: &RunOutput) -> (&str, u64, u64, u64, u64) {
        let m = &out.metrics;
        (m.status.code(), m.iterations, out.runtime.to_bits(), m.network_bytes, m.messages)
    }

    #[test]
    fn road_network_runs_pin_the_traversal_and_wcc_charges() {
        // The road network's long diameter runs many jobs, each a full pass
        // over the graph whatever the wave's size.
        let ds = dataset(DatasetKind::Wrn);
        let src = (0..ds.1.num_vertices() as VertexId).find(|&v| ds.1.out_degree(v) > 0).unwrap();
        let sssp = Hadoop.run(&input(&ds, Workload::Sssp { source: src }, 4, 1 << 30));
        assert_eq!(sssp.result, Some(WorkloadResult::Distances(reference::sssp(&ds.1, src))));
        assert_eq!(fingerprint(&sssp), ("OK", 127, 4643752893345485383, 39970710, 1495298));
        let wcc = Hadoop.run(&input(&ds, Workload::Wcc, 4, 1 << 30));
        assert_eq!(wcc.result, Some(WorkloadResult::Labels(reference::wcc(&ds.1))));
        assert_eq!(fingerprint(&wcc), ("OK", 127, 4643757320279697122, 72867266, 2990596));
    }

    #[test]
    fn haloop_runs_pin_the_cached_loop_charges() {
        // HaLoop's local-cache reads after the first job, and its shuffle
        // bug at the third job on a 64-machine cluster.
        let ds = dataset(DatasetKind::Twitter);
        let wcc = HaLoop.run(&input(&ds, Workload::Wcc, 16, 1 << 30));
        assert_eq!(wcc.result, Some(WorkloadResult::Labels(reference::wcc(&ds.1))));
        assert_eq!(fingerprint(&wcc), ("OK", 4, 4629840569489574110, 2256000, 96000));
        let khop = HaLoop.run(&input(&ds, Workload::khop3(0), 16, 1 << 30));
        assert_eq!(khop.result, Some(WorkloadResult::Distances(reference::khop(&ds.1, 0, 3))));
        assert_eq!(fingerprint(&khop), ("OK", 3, 4629319149939233558, 846000, 36000));
        let pr = Workload::PageRank(PageRankConfig::fixed(10));
        let shfl = HaLoop.run(&input(&ds, pr, 64, 1 << 30));
        assert_eq!(shfl.result, None);
        assert_eq!(fingerprint(&shfl), ("SHFL", 3, 4632289479173075452, 1001250, 36000));
    }

    #[test]
    fn haloop_is_faster_but_less_than_twice() {
        let ds = dataset(DatasetKind::Twitter);
        let pr = Workload::PageRank(PageRankConfig::fixed(10));
        let hd = Hadoop.run(&input(&ds, pr, 16, 1 << 30));
        let hl = HaLoop.run(&input(&ds, pr, 16, 1 << 30));
        let (t_hd, t_hl) = (hd.metrics.total_time(), hl.metrics.total_time());
        assert!(t_hl < t_hd, "HaLoop {t_hl} vs Hadoop {t_hd}");
        assert!(t_hd < 2.0 * t_hl, "speed-up should stay under 2x: {}", t_hd / t_hl);
        // Same answers.
        assert_eq!(hd.result, hl.result);
    }

    #[test]
    fn haloop_shuffle_bug_on_large_clusters() {
        let ds = dataset(DatasetKind::Twitter);
        let pr = Workload::PageRank(PageRankConfig::fixed(10));
        let out = HaLoop.run(&input(&ds, pr, 64, 1 << 30));
        assert_eq!(out.metrics.status.code(), "SHFL");
        // Short jobs (K-hop: 4 iterations) escape the bug.
        let khop = HaLoop.run(&input(&ds, Workload::khop3(0), 64, 1 << 30));
        assert!(khop.metrics.status.is_ok());
    }

    #[test]
    fn hadoop_never_ooms_even_with_tiny_memory() {
        let ds = dataset(DatasetKind::Uk0705);
        // A budget that OOMs every in-memory system still fits Hadoop's
        // streaming buffers.
        let out = Hadoop.run(&input(&ds, Workload::PageRank(PageRankConfig::fixed(3)), 4, 8 << 10));
        assert!(out.metrics.status.is_ok(), "{:?}", out.metrics.status);
        assert!(out.metrics.max_machine_memory() <= 8 << 10);
    }

    #[test]
    fn hadoop_is_io_bound() {
        let ds = dataset(DatasetKind::Twitter);
        let out = Hadoop.run(&input(&ds, Workload::PageRank(PageRankConfig::fixed(5)), 4, 1 << 30));
        let cpu = out.metrics.cpu;
        assert!(
            cpu.io_wait_avg > cpu.user_avg,
            "I/O wait {:.3} should exceed user {:.3} (§5.10)",
            cpu.io_wait_avg,
            cpu.user_avg
        );
    }

    #[test]
    fn haloop_has_better_cpu_utilization_than_hadoop() {
        let ds = dataset(DatasetKind::Twitter);
        let w = Workload::PageRank(PageRankConfig::fixed(8));
        let hd = Hadoop.run(&input(&ds, w, 4, 1 << 30));
        let hl = HaLoop.run(&input(&ds, w, 4, 1 << 30));
        assert!(
            hl.metrics.cpu.user_avg > hd.metrics.cpu.user_avg,
            "HaLoop user {:.3} vs Hadoop user {:.3}",
            hl.metrics.cpu.user_avg,
            hd.metrics.cpu.user_avg
        );
    }
}
