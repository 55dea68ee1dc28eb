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
//! iteration and `mirror_traffic` walks that table against the cluster's current
//! fragment placement.

use crate::gather::{KHopEnd, Rounds, RunGather};
use crate::recovery::{Recovery, RecoveryModel};
use crate::{even_share, result_bytes, Engine, EngineInput, RunOutput};
use graphbench_algos::{Workload, WorkloadResult};
use graphbench_graph::format::GraphFormat;
use graphbench_graph::rng::splitmix64;
use graphbench_graph::VertexId;
use graphbench_partition::{MachineBits, MachineId, VertexCutPartition, VertexCutStrategy};
use graphbench_sim::{Cluster, CostProfile, Phase, SimError};

/// HDFS block size, from which the default partition count derives.
const HDFS_BLOCK_BYTES: u64 = 64 << 20;

/// GraphX / Spark configuration.
#[derive(Debug, Clone)]
pub struct GraphX {
    /// Number of RDD partitions. `None` = one per HDFS block (the default
    /// the paper found sub-optimal, §4.4.3).
    pub num_partitions: Option<usize>,
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
            .unwrap_or_else(|| (dataset_bytes.div_ceil(HDFS_BLOCK_BYTES)).max(1) as usize)
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
    machines: usize,
    cores: u32,
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
    /// partition drags its whole upstream history along). Returns `true`
    /// when a crash was recovered: the caller must then restore its state
    /// snapshot and re-run the iterations since the materialization point.
    fn charge_stage(&mut self, cluster: &mut Cluster) -> Result<bool, SimError> {
        cluster.set_label("stage_sched");
        cluster.advance_network_wait(&self.stage_wait)?;
        let crashed = self.recovery.at_barrier(cluster)?;
        cluster.set_label("barrier");
        cluster.barrier()?;
        Ok(crashed)
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
    let bytes = input.graph.text_bytes(GraphFormat::EdgeListFormat);
    let slots = engine.partitions_for(bytes);
    // Reading the same HDFS block from several tasks re-reads it.
    let read_amplification = (slots as u64).div_ceil((bytes / HDFS_BLOCK_BYTES).max(1)).min(4);
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
    // bytes and collects the vertex's executor set for `mirror_traffic`.
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
    cluster.begin_phase(Phase::Execute);
    let g = input.graph;
    let mut rounds = Rounds::new(g, input.workload, engine.wcc_hash_to_min, || {
        RunGather::build(n, machines, |m| edges_by_machine[m].iter().copied())
    });
    // Every stage scans whole partitions, so its compute is the same each
    // time: an op per edge for PageRank's join and WCC's HashMin, plus a
    // pass over the machine's vertex share for hash-to-min's pointer jump;
    // a quarter op per edge for a traversal's active-set filter.
    let ops: Vec<f64> = edges_by_machine
        .iter()
        .map(|e| {
            let edges = e.len() as f64;
            match input.workload {
                Workload::PageRank(_) => edges,
                Workload::Wcc if engine.wcc_hash_to_min => edges + (n / machines) as f64,
                Workload::Wcc => edges,
                _ => edges / 4.0,
            }
        })
        .collect();
    drop(edges_by_machine);
    let mut ctx = SparkCtx {
        exec_off,
        exec_ids,
        coord,
        slots_per_machine,
        machines,
        cores: input.cluster.cores,
        state_bytes_per_machine,
        lineage_per_machine: vec![0u64; machines],
        checkpoint_every: engine.checkpoint_every,
        result_state_bytes: n as u64 * 16,
        recovery: Recovery::new(cluster, RecoveryModel::LineageRecompute),
        stage_wait: vec![driver; machines],
    };
    // Lost partitions recompute from lineage: the state at the last
    // materialization (a checkpoint, or the initial RDD) is kept, only when
    // a crash is actually scheduled.
    let snapshots = cluster.plan_has_crashes();
    if snapshots {
        rounds.save();
    }
    // PageRank syncs every vertex every stage: one tally per run.
    let mut every = None;
    while !rounds.done(KHopEnd::EmptyWave) {
        let round = rounds.round();
        if ctx.charge_stage(cluster)? && snapshots {
            // Rewind to the materialization and re-run the rounds since,
            // uncharged: the recovery stall already billed them.
            rounds.restore();
            while rounds.round() < round {
                rounds.step();
            }
        }
        // Label before the host work so its wallclock spans carry it
        // (charge_compute sets the same label before the charge itself).
        cluster.set_label("superstep");
        rounds.step();
        charge_compute(cluster, &ctx, &ops)?;
        // Mirror sync of the changed vertices; labelled before the host
        // work, like the stage.
        cluster.set_label("shuffle");
        let synced;
        let [sent, recv, msgs] = match rounds.changed() {
            Some(changed) => {
                synced = mirror_traffic(&ctx, changed.iter().copied());
                &synced
            }
            None => &*every.get_or_insert_with(|| mirror_traffic(&ctx, 0..n as VertexId)),
        };
        cluster.exchange(sent, recv, msgs)?;
        let changed = rounds.changed().map_or(n, <[_]>::len) as u64;
        if ctx.charge_lineage(cluster, round, changed)? && snapshots {
            rounds.save();
        }
        cluster.sample_trace();
    }

    cluster.begin_phase(Phase::Save);
    cluster.hdfs_write(&even_share(result_bytes(n as u64), machines))?;
    Ok(rounds.into_result())
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

/// Per-machine `[sent, recv, msgs]` of a mirror sync for `changed`.
fn mirror_traffic(ctx: &SparkCtx, changed: impl Iterator<Item = VertexId>) -> [Vec<u64>; 3] {
    let [mut sent, mut recv, mut msgs] = [(); 3].map(|_| vec![0u64; ctx.machines]);
    for v in changed {
        let v = v as usize;
        let master = ctx.coord[v] as usize;
        for &m in &ctx.exec_ids[ctx.exec_off[v] as usize..ctx.exec_off[v + 1] as usize] {
            if m as usize != master {
                sent[master] += 16;
                recv[m as usize] += 16;
                msgs[master] += 1;
            }
        }
    }
    [sent, recv, msgs]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScaleInfo;
    use graphbench_algos::reference;
    use graphbench_algos::workload::{PageRankConfig, StopCriterion};
    use graphbench_algos::UNREACHABLE;
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

    /// `(status, supersteps, runtime bits, network bytes, messages)` of a run.
    fn fingerprint(out: &RunOutput) -> (&str, u64, u64, u64, u64) {
        let m = &out.metrics;
        (m.status.code(), m.iterations, out.runtime.to_bits(), m.network_bytes, m.messages)
    }

    #[test]
    fn road_network_runs_pin_the_traversal_and_wcc_charges() {
        // The road network's long diameter runs many stages, each with its
        // own mirror sync of the changed vertices and its own lineage growth.
        let ds = dataset(DatasetKind::Wrn);
        let src = (0..ds.1.num_vertices() as VertexId).find(|&v| ds.1.out_degree(v) > 0).unwrap();
        let sssp = gx(16).run(&input(&ds, Workload::Sssp { source: src }, 4, 1 << 30));
        assert_eq!(sssp.result, Some(WorkloadResult::Distances(reference::sssp(&ds.1, src))));
        assert_eq!(fingerprint(&sssp), ("OK", 127, 4631401732753724735, 464729, 17803));
        let wcc = gx(16).run(&input(&ds, Workload::Wcc, 4, 1 << 30));
        assert_eq!(wcc.result, Some(WorkloadResult::Labels(reference::wcc(&ds.1))));
        assert_eq!(fingerprint(&wcc), ("OK", 127, 4631411578957123813, 11768697, 371052));
    }

    #[test]
    fn hash_to_min_run_pins_the_shortcut_charges() {
        // The pointer jump adds a vertex pass per machine to every stage and
        // changes which vertices each stage syncs and pins in the lineage.
        let ds = dataset(DatasetKind::Wrn);
        let h2m = GraphX { wcc_hash_to_min: true, ..gx(16) };
        let wcc = h2m.run(&input(&ds, Workload::Wcc, 4, 1 << 30));
        assert_eq!(wcc.result, Some(WorkloadResult::Labels(reference::wcc(&ds.1))));
        assert_eq!(fingerprint(&wcc), ("OK", 8, 4621174995956075785, 876985, 30686));
    }

    #[test]
    fn checkpointed_crash_runs_pin_the_restore_and_replay_charges() {
        // A crash mid-Execute restores the state materialized at the last
        // checkpoint (every second stage) and replays the stages since.
        use graphbench_sim::FaultPlan;
        let twitter = dataset(DatasetKind::Twitter);
        let wrn = dataset(DatasetKind::Wrn);
        let src = (0..wrn.1.num_vertices() as VertexId).find(|&v| wrn.1.out_degree(v) > 0).unwrap();
        let pr = PageRankConfig::fixed(10);
        let cases = [
            (&twitter, Workload::PageRank(pr), ("OK", 10, 4621688113377708854, 560958, 21440)),
            (&wrn, Workload::Wcc, ("OK", 127, 4631418084744555533, 11768697, 371052)),
            (&wrn, Workload::Sssp { source: src }, ("OK", 127, 4631408238541156455, 464729, 17803)),
        ];
        let engine = GraphX { checkpoint_every: Some(2), ..gx(16) };
        for (ds, w, want) in cases {
            let clean = engine.run(&input(ds, w, 4, 1 << 30));
            let p = &clean.metrics.phases;
            let mut inp = input(ds, w, 4, 1 << 30);
            inp.cluster.faults = FaultPlan::single(p.overhead + p.load + 0.5 * p.execute, 1);
            let out = engine.run(&inp);
            assert!(out.journal.events().iter().any(|e| e.label == "recovery"), "{w:?}");
            match (out.result.as_ref(), w) {
                (Some(WorkloadResult::Ranks(r)), Workload::PageRank(pr)) => {
                    let (want, _) = reference::pagerank(&ds.1, &pr);
                    assert!(r.iter().zip(&want).all(|(a, b)| (a - b).abs() < 1e-9));
                }
                (Some(WorkloadResult::Labels(l)), Workload::Wcc) => {
                    assert_eq!(l, &reference::wcc(&ds.1));
                }
                (Some(WorkloadResult::Distances(d)), Workload::Sssp { source }) => {
                    assert_eq!(d, &reference::sssp(&ds.1, source));
                }
                (other, _) => panic!("{w:?}: {other:?}"),
            }
            assert_eq!(fingerprint(&out), want, "{w:?}");
        }
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
        let traversals = [
            (Workload::Sssp { source: 0 }, reference::sssp(&ds.1, 0)),
            (Workload::khop3(0), reference::khop(&ds.1, 0, 3)),
        ];
        let cases = std::iter::once((Workload::PageRank(PageRankConfig::fixed(10)), None))
            .chain(traversals.map(|(w, d)| (w, Some(WorkloadResult::Distances(d)))));
        for (w, want) in cases {
            let clean = gx(16).run(&input(&ds, w, 4, 1 << 30));
            assert!(clean.metrics.status.is_ok(), "{w:?}");
            // Kill an executor halfway through execution; the lost partitions
            // recompute from lineage and the answer must not change.
            let p = &clean.metrics.phases;
            let mid_execute = p.overhead + p.load + 0.5 * p.execute;
            let mut inp = input(&ds, w, 4, 1 << 30);
            inp.cluster.faults = FaultPlan::single(mid_execute, 1);
            let faulted = gx(16).run(&inp);
            assert!(faulted.metrics.status.is_ok(), "{w:?}: {:?}", faulted.metrics.status);
            assert_eq!(clean.result, faulted.result, "{w:?}");
            if let Some(want) = &want {
                assert_eq!(faulted.result.as_ref(), Some(want), "{w:?}");
            }
            assert!(faulted.metrics.phases.execute > clean.metrics.phases.execute, "{w:?}");
            assert!(faulted.journal.events().iter().any(|e| e.label == "recovery"), "{w:?}");
        }
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

    /// The algorithm the mirror sync ran before the load-time table: per
    /// changed vertex, collect the executors of its replica partitions,
    /// deduplicate, sort, hash-pick the coordinating copy, and count one
    /// 16-byte message per executor on another machine. Returns the
    /// journal's `(net_bytes, messages)` of the exchange at the default
    /// 16-byte framing and `work_scale` 1.
    fn naive_sync(
        part: &VertexCutPartition,
        machine_of_slot: &[usize],
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
                    if m != master {
                        sent += 16;
                        msgs += 1;
                    }
                }
            }
        }
        (sent + 16 * msgs, msgs)
    }

    /// `(net_bytes, messages)` of every execute-phase mirror sync of a run.
    fn sync_events(out: &RunOutput) -> Vec<(u64, u64)> {
        use graphbench_sim::{EventKind, Phase};
        out.journal
            .events()
            .iter()
            .filter(|e| {
                e.phase == Phase::Execute && e.label == "shuffle" && e.kind == EventKind::Network
            })
            .map(|e| (e.net_bytes, e.messages))
            .collect()
    }

    #[test]
    fn mirror_sync_traffic_matches_naive_recomputation() {
        const MACHINES: usize = 6;
        const SLOTS: usize = 48;
        let engine = gx(SLOTS);
        let _guard = crate::exec::TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
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
                let mut clean = None;
                for threads in [1usize, 4] {
                    crate::exec::set_threads(threads);
                    for chunk in [1usize, 63, 4096] {
                        crate::exec::set_chunk_size(chunk);
                        let out = engine.run(&input(&ds, w, MACHINES, 1 << 30));
                        let ctx = format!("{kind:?} {w:?} threads {threads} chunk {chunk}");
                        assert!(out.metrics.status.is_ok(), "{ctx}: {:?}", out.metrics.status);
                        assert_eq!(out.result.as_ref(), Some(&want_answer), "{ctx}");
                        let syncs = sync_events(&out);
                        assert_eq!(syncs.len(), rounds.len(), "{ctx}");
                        for (i, (&got, changed)) in syncs.iter().zip(&rounds).enumerate() {
                            let want = naive_sync(&part, &machine_of_slot, changed);
                            assert_eq!(got, want, "{ctx}: sync {i}");
                        }
                        let key = (out.metrics.network_bytes, out.metrics.messages);
                        assert_eq!(*clean.get_or_insert(key), key, "{ctx}");
                    }
                }
            }
        }
        crate::exec::set_chunk_size(4096);
        crate::exec::set_threads(1);
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
