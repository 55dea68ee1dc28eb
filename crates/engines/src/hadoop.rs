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

use crate::exec;
use crate::recovery::{Recovery, RecoveryModel};
use crate::{dataset_bytes, even_share, result_bytes, Engine, EngineInput, RunOutput};
use graphbench_algos::workload::{PageRankConfig, StopCriterion};
use graphbench_algos::{Workload, WorkloadResult, UNREACHABLE};
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
        let mut notes = Vec::new();
        let outcome = run_mapreduce(&mut cluster, input, false, &mut notes);
        crate::util::output_from(cluster, outcome, notes)
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
        let mut notes =
            vec!["HaLoop keeps many files open; raised the OS nofile limit (§2.5.1)".to_string()];
        let outcome = run_mapreduce(&mut cluster, input, true, &mut notes);
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
    _notes: &mut Vec<String>,
) -> Result<WorkloadResult, SimError> {
    let machines = cluster.machines();
    let n = input.graph.num_vertices();
    let g = input.graph;
    let m_edges = g.num_edges();
    let graph_bytes = dataset_bytes(input.edges, GraphFormat::Adj);
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

    // Undirected adjacency for WCC (the MR implementation materializes
    // reverse edges in its first iteration).
    let result = match input.workload {
        Workload::PageRank(pr) => WorkloadResult::Ranks(mr_pagerank(
            cluster,
            input,
            haloop,
            graph_bytes,
            state_bytes,
            pr,
        )?),
        Workload::Wcc => {
            WorkloadResult::Labels(mr_wcc(cluster, input, haloop, graph_bytes, state_bytes)?)
        }
        Workload::Sssp { source } => WorkloadResult::Distances(mr_traversal(
            cluster,
            input,
            haloop,
            graph_bytes,
            state_bytes,
            source,
            u32::MAX,
        )?),
        Workload::KHop { source, k } => WorkloadResult::Distances(mr_traversal(
            cluster,
            input,
            haloop,
            graph_bytes,
            state_bytes,
            source,
            k,
        )?),
    };
    let _ = (n, m_edges);

    cluster.begin_phase(Phase::Save);
    cluster.hdfs_write(&even_share(result_bytes(n as u64), machines))?;
    cluster.free_all(&buffers);
    Ok(result)
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

/// Reduce-side gather state for PageRank-style aggregations (shared with
/// the Vertica engine, whose join uses the same per-machine scan), built
/// once per run (the graph is loop-invariant): the transposed adjacency —
/// per-destination source lists in ascending order, exactly the order an
/// ascending source scan delivers contributions — plus degree-aware
/// destination windows so one high-in-degree hub cannot serialize a whole
/// chunk.
pub(crate) struct MrGather {
    in_off: Vec<u32>,
    in_src: Vec<VertexId>,
    pub(crate) plan: Vec<(usize, usize)>,
}

impl MrGather {
    pub(crate) fn build(g: &graphbench_graph::CsrGraph) -> MrGather {
        let n = g.num_vertices();
        let mut off = vec![0u32; n + 1];
        for s in 0..n as VertexId {
            for &t in g.out_neighbors(s) {
                off[t as usize + 1] += 1;
            }
        }
        for v in 0..n {
            off[v + 1] += off[v];
        }
        let mut cursor: Vec<u32> = off[..n].to_vec();
        let mut src = vec![0 as VertexId; off[n] as usize];
        for s in 0..n as VertexId {
            for &t in g.out_neighbors(s) {
                src[cursor[t as usize] as usize] = s;
                cursor[t as usize] += 1;
            }
        }
        let weights: Vec<u64> = (0..n).map(|t| 1 + u64::from(off[t + 1] - off[t])).collect();
        let plan = exec::weighted_spans(&weights, exec::chunk_size());
        MrGather { in_off: off, in_src: src, plan }
    }

    /// `incoming[t]` for one destination: one partial per contiguous source
    /// chunk (of `machines` ranges over `n` sources), folded from 0.0 in
    /// ascending source order, partials added in chunk order — the serial
    /// per-machine scan's hierarchical f64 fold, bit for bit. Source chunks
    /// contributing nothing would add an exact +0.0 and are skipped.
    pub(crate) fn incoming_of(
        &self,
        t: usize,
        g: &graphbench_graph::CsrGraph,
        ranks: &[f64],
        machines: usize,
        n: usize,
    ) -> f64 {
        let nbrs = &self.in_src[self.in_off[t] as usize..self.in_off[t + 1] as usize];
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
}

/// Pooled reduce-side scratch for the min-fold workloads (WCC, traversal):
/// degree-aware source spans planned once over the static graph, per-task
/// candidate buckets, and the reused `next` vector that a full `clone()`
/// per worker per iteration used to allocate.
struct MrScratch<T> {
    plan: Vec<(usize, usize)>,
    buckets: Vec<Vec<(VertexId, T)>>,
    next: Vec<T>,
}

impl<T> MrScratch<T> {
    fn build(g: &graphbench_graph::CsrGraph) -> MrScratch<T> {
        let n = g.num_vertices();
        let weights: Vec<u64> = (0..n as VertexId).map(|v| 1 + g.out_degree(v) as u64).collect();
        let plan = exec::weighted_spans(&weights, exec::chunk_size());
        let buckets = (0..plan.len()).map(|_| Vec::new()).collect();
        MrScratch { plan, buckets, next: Vec::new() }
    }
}

fn mr_pagerank(
    cluster: &mut Cluster,
    input: &EngineInput<'_>,
    haloop: bool,
    graph_bytes: u64,
    state_bytes: u64,
    cfg: PageRankConfig,
) -> Result<Vec<f64>, SimError> {
    let g = input.graph;
    let n = g.num_vertices();
    let machines = cluster.machines();
    let mut ranks = vec![1.0f64; n];
    let mut incoming = vec![0.0f64; n];
    let (tol, max_iters) = match cfg.stop {
        StopCriterion::Tolerance(t) => (t, u32::MAX),
        StopCriterion::Iterations(k) => (0.0, k),
    };
    let mut recovery = Recovery::new(cluster, RecoveryModel::TaskReexecution);
    let mg = MrGather::build(g);
    let mut iter = 0u64;
    while (iter as u32) < max_iters {
        let shape = IterationShape {
            map_records: n as u64,
            shuffle_records: g.num_edges(),
            record_bytes: 12,
            state_bytes,
        };
        charge_iteration(
            cluster,
            &mut recovery,
            machines,
            input.cluster.cores,
            haloop,
            iter,
            graph_bytes,
            &shape,
        )?;
        // The actual reduce computation, chunked over destination windows:
        // each task folds one partial per contiguous source chunk (from
        // 0.0, ascending sources — the transpose keeps that order) and
        // adds the partials in source-chunk order, reproducing the serial
        // hierarchical fold bit for bit at any chunk x thread combination.
        // Source chunks contributing nothing add an exact +0.0 and are
        // skipped.
        cluster.set_label("reduce");
        let ranks_r: &[f64] = &ranks;
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
        iter += 1;
        if tol > 0.0 && max_delta < tol {
            break;
        }
    }
    Ok(ranks)
}

fn mr_wcc(
    cluster: &mut Cluster,
    input: &EngineInput<'_>,
    haloop: bool,
    graph_bytes: u64,
    state_bytes: u64,
) -> Result<Vec<VertexId>, SimError> {
    let g = input.graph;
    let n = g.num_vertices();
    let machines = cluster.machines();
    let mut label: Vec<VertexId> = (0..n as VertexId).collect();
    let mut recovery = Recovery::new(cluster, RecoveryModel::TaskReexecution);
    let mut ms: MrScratch<VertexId> = MrScratch::build(g);
    let mut iter = 0u64;
    loop {
        let shape = IterationShape {
            map_records: n as u64,
            // HashMin emits the label along both edge directions.
            shuffle_records: 2 * g.num_edges(),
            record_bytes: 8,
            state_bytes,
        };
        charge_iteration(
            cluster,
            &mut recovery,
            machines,
            input.cluster.cores,
            haloop,
            iter,
            graph_bytes,
            &shape,
        )?;
        // HashMin, chunked over degree-aware source spans: tasks emit
        // `(vertex, smaller label)` candidates into pooled buckets; integer
        // min is order-free, so folding the buckets in fixed task order
        // reproduces the old per-worker min-merge exactly — without the
        // full label copy each worker used to clone. An improvement was
        // applied iff some label shrank, which is exactly the old
        // OR-of-part_changed.
        cluster.set_label("reduce");
        let label_r: &[VertexId] = &label;
        let mut tasks: Vec<((usize, usize), &mut Vec<(VertexId, VertexId)>)> =
            ms.plan.iter().copied().zip(ms.buckets.iter_mut()).collect();
        exec::run_chunks(&mut tasks, |_, t| {
            let ((lo, hi), ref mut bucket) = *t;
            bucket.clear();
            for s in lo as VertexId..hi as VertexId {
                for &d in g.out_neighbors(s) {
                    if label_r[s as usize] < label_r[d as usize] {
                        bucket.push((d, label_r[s as usize]));
                    }
                    if label_r[d as usize] < label_r[s as usize] {
                        bucket.push((s, label_r[d as usize]));
                    }
                }
            }
        });
        let mut changed = false;
        ms.next.clear();
        ms.next.extend_from_slice(label_r);
        let next = &mut ms.next;
        for (_, bucket) in &tasks {
            for &(v, l) in bucket.iter() {
                if l < next[v as usize] {
                    next[v as usize] = l;
                    changed = true;
                }
            }
        }
        drop(tasks);
        std::mem::swap(&mut label, next);
        iter += 1;
        if !changed {
            break;
        }
    }
    Ok(label)
}

fn mr_traversal(
    cluster: &mut Cluster,
    input: &EngineInput<'_>,
    haloop: bool,
    graph_bytes: u64,
    state_bytes: u64,
    source: VertexId,
    bound: u32,
) -> Result<Vec<u32>, SimError> {
    let g = input.graph;
    let n = g.num_vertices();
    let machines = cluster.machines();
    let mut dist = vec![UNREACHABLE; n];
    dist[source as usize] = 0;
    let mut recovery = Recovery::new(cluster, RecoveryModel::TaskReexecution);
    let mut ms: MrScratch<u32> = MrScratch::build(g);
    let mut iter = 0u64;
    loop {
        // MapReduce scans every edge every iteration — it cannot restrict
        // work to the frontier, which is what makes MR traversals on large-
        // diameter graphs hopeless (§5.8).
        let shape = IterationShape {
            map_records: n as u64,
            shuffle_records: g.num_edges(),
            record_bytes: 8,
            state_bytes,
        };
        charge_iteration(
            cluster,
            &mut recovery,
            machines,
            input.cluster.cores,
            haloop,
            iter,
            graph_bytes,
            &shape,
        )?;
        // Distance relaxations, chunked over degree-aware source spans:
        // candidate `(vertex, distance)` pairs land in pooled buckets and
        // min-fold in fixed task order (order-free), matching the old
        // per-worker min-merge without its full distance-vector clones.
        cluster.set_label("reduce");
        let dist_r: &[u32] = &dist;
        let mut tasks: Vec<((usize, usize), &mut Vec<(VertexId, u32)>)> =
            ms.plan.iter().copied().zip(ms.buckets.iter_mut()).collect();
        exec::run_chunks(&mut tasks, |_, t| {
            let ((lo, hi), ref mut bucket) = *t;
            bucket.clear();
            for s in lo as VertexId..hi as VertexId {
                let ds = dist_r[s as usize];
                if ds == UNREACHABLE || ds >= bound {
                    continue;
                }
                for &d in g.out_neighbors(s) {
                    if ds + 1 < dist_r[d as usize] {
                        bucket.push((d, ds + 1));
                    }
                }
            }
        });
        let mut changed = false;
        ms.next.clear();
        ms.next.extend_from_slice(dist_r);
        let next = &mut ms.next;
        for (_, bucket) in &tasks {
            for &(v, d2) in bucket.iter() {
                if d2 < next[v as usize] {
                    next[v as usize] = d2;
                    changed = true;
                }
            }
        }
        drop(tasks);
        std::mem::swap(&mut dist, next);
        iter += 1;
        // K-hop needs exactly `bound` propagation waves; SSSP (unbounded)
        // iterates to a fixpoint.
        if !changed || iter >= bound as u64 {
            break;
        }
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
