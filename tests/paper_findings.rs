//! End-to-end checks of the paper's headline findings, exercised through the
//! public crate APIs rather than engine-internal unit tests.
//!
//! The `finding_N_*` tests cover the nine acceptance criteria of DESIGN.md
//! "Findings we must reproduce", one test per finding, named after the
//! paper section that states it. Relative claims (who wins, by what
//! factor) run at the calibrated default scale (base 1500, seed 42 — the
//! configuration EXPERIMENTS.md documents); pure status cells reuse the
//! acceptance matrix's tiny scale.

use graphbench::system::GlStop;
use graphbench::{ExperimentSpec, PaperEnv, RunRecord, Runner, SystemId};
use graphbench_algos::workload::PageRankConfig;
use graphbench_algos::{Workload, WorkloadKind};
use graphbench_engines::{Engine, EngineInput, ScaleInfo};
use graphbench_gen::{Dataset, DatasetKind, Scale};
use graphbench_graph::{CsrGraph, EdgeList};
use graphbench_sim::{ClusterSpec, FaultPlan};

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

/// The calibrated configuration the EXPERIMENTS.md numbers come from.
fn paper_runner() -> Runner {
    Runner::new(PaperEnv::new(Scale { base: 1_500 }, 42))
}

/// The acceptance matrix's scale: fast, statuses pinned in
/// `crates/core/tests/acceptance.rs`.
fn tiny_runner() -> Runner {
    Runner::new(PaperEnv::new(Scale::tiny(), 42))
}

fn run(
    r: &mut Runner,
    system: SystemId,
    workload: WorkloadKind,
    dataset: DatasetKind,
    machines: usize,
) -> RunRecord {
    r.run(&ExperimentSpec { system, workload, dataset, machines })
}

fn gl_random_iterations(sync: bool) -> SystemId {
    SystemId::GraphLab { sync, auto: false, stop: GlStop::Iterations }
}

/// Finding 1 (§5.1): Blogel-B has the shortest *execution* for reachability
/// workloads (block-level computation skips most supersteps), but Blogel-V
/// wins *end-to-end* once Blogel-B's partitioning-heavy load is counted.
#[test]
fn finding_1_s5_1_blogel_b_shortest_execution_blogel_v_wins_end_to_end() {
    // Execution: on the road network, block mode needs far fewer
    // supersteps and a shorter execute phase than vertex mode.
    let ds = dataset(DatasetKind::Wrn);
    let src = (0..ds.1.num_vertices() as u32).find(|&v| ds.1.out_degree(v) > 0).unwrap();
    let w = Workload::Sssp { source: src };
    let bv = graphbench_engines::blogel::BlogelV.run(&input(&ds, w, 4, 1 << 30));
    let bb = graphbench_engines::blogel::BlogelB::default().run(&input(&ds, w, 4, 1 << 30));
    assert!(bv.metrics.status.is_ok() && bb.metrics.status.is_ok());
    assert!(
        bb.metrics.iterations < bv.metrics.iterations,
        "BB {} vs BV {} supersteps",
        bb.metrics.iterations,
        bv.metrics.iterations
    );
    assert!(
        bb.metrics.phases.execute < bv.metrics.phases.execute,
        "execute: BB {} vs BV {}",
        bb.metrics.phases.execute,
        bv.metrics.phases.execute
    );
    // End-to-end: Blogel-V's cheap load wins the total at the calibrated
    // scale (Figure 5's ordering).
    let mut r = paper_runner();
    let bv = run(&mut r, SystemId::BlogelV, WorkloadKind::Wcc, DatasetKind::Twitter, 16);
    let bb = run(&mut r, SystemId::BlogelB, WorkloadKind::Wcc, DatasetKind::Twitter, 16);
    assert!(bv.metrics.status.is_ok() && bb.metrics.status.is_ok());
    assert!(
        bv.metrics.total_time() < bb.metrics.total_time(),
        "end-to-end: BV {} vs BB {}",
        bv.metrics.total_time(),
        bb.metrics.total_time()
    );
    assert!(
        bb.metrics.phases.load > bv.metrics.phases.load,
        "BB pays GVD partitioning at load: BB {} vs BV {}",
        bb.metrics.phases.load,
        bv.metrics.phases.load
    );
}

/// Finding 2 (§5.3, §5.6, §5.8): the large-diameter road network breaks or
/// times out most systems on the diameter-bound workloads (SSSP/WCC);
/// Blogel-V is the main survivor.
#[test]
fn finding_2_s5_3_s5_6_s5_8_road_network_breaks_or_times_out_most_systems() {
    let mut r = tiny_runner();
    let wrn = DatasetKind::Wrn;
    let giraph = run(&mut r, SystemId::Giraph, WorkloadKind::Wcc, wrn, 16);
    assert_eq!(giraph.cell(), "OOM");
    let graphx = run(&mut r, SystemId::GraphX, WorkloadKind::Wcc, wrn, 16);
    assert_eq!(graphx.cell(), "OOM");
    let gelly = run(&mut r, SystemId::Gelly, WorkloadKind::Wcc, wrn, 16);
    assert_eq!(gelly.cell(), "TO");
    let hadoop = run(&mut r, SystemId::Hadoop, WorkloadKind::Sssp, wrn, 16);
    assert_eq!(hadoop.cell(), "TO");
    let bv = run(&mut r, SystemId::BlogelV, WorkloadKind::Wcc, wrn, 16);
    assert!(bv.metrics.status.is_ok(), "{:?}", bv.metrics.status);
}

/// Finding 3 (§5.4): GraphLab's auto partitioning quality depends on the
/// machine count — Grid applies at 16/64, while 32/128 fall back to the
/// greedy Oblivious strategy. (None of the paper's sizes admits PDS.)
#[test]
fn finding_3_s5_4_graphlab_auto_partitioning_depends_on_machine_count() {
    use graphbench_partition::{VertexCutPartition, VertexCutStrategy};
    let d = Dataset::generate(DatasetKind::Twitter, Scale { base: 400 }, 3);
    let mut edges = d.edges.clone();
    edges.remove_self_edges();
    for (machines, expect) in [(16, "grid"), (32, "oblivious"), (64, "grid"), (128, "oblivious")] {
        let auto = VertexCutPartition::build(&edges, machines, VertexCutStrategy::Auto, 3).unwrap();
        assert_eq!(auto.resolved_strategy().name(), expect, "auto at {machines} machines");
        // Auto never does worse than random hashing (Table 4's shape).
        let random =
            VertexCutPartition::build(&edges, machines, VertexCutStrategy::Random, 3).unwrap();
        assert!(
            auto.replication_factor() <= random.replication_factor(),
            "at {machines} machines: auto {} vs random {}",
            auto.replication_factor(),
            random.replication_factor()
        );
    }
}

/// Finding 4 (§5.5): Giraph is competitive with GraphLab-random at small
/// clusters, but GraphLab wins at 128 machines as Giraph's Hadoop job
/// negotiation grows with the cluster.
#[test]
fn finding_4_s5_5_giraph_competitive_early_graphlab_wins_at_128() {
    let mut r = paper_runner();
    let uk = DatasetKind::Uk0705;
    let gl = gl_random_iterations(true);
    let g16 = run(&mut r, SystemId::Giraph, WorkloadKind::PageRank, uk, 16);
    let gl16 = run(&mut r, gl, WorkloadKind::PageRank, uk, 16);
    let g128 = run(&mut r, SystemId::Giraph, WorkloadKind::PageRank, uk, 128);
    let gl128 = run(&mut r, gl, WorkloadKind::PageRank, uk, 128);
    for rec in [&g16, &gl16, &g128, &gl128] {
        assert!(
            rec.metrics.status.is_ok(),
            "{} @{}: {:?}",
            rec.system,
            rec.machines,
            rec.metrics.status
        );
    }
    // Within 2x of each other at 16 machines.
    let ratio16 = g16.metrics.total_time() / gl16.metrics.total_time();
    assert!((0.5..2.0).contains(&ratio16), "16 machines: Giraph/GraphLab ratio {ratio16}");
    // GraphLab ahead at 128.
    assert!(
        gl128.metrics.total_time() < g128.metrics.total_time(),
        "128 machines: GL {} vs Giraph {}",
        gl128.metrics.total_time(),
        g128.metrics.total_time()
    );
    // The mechanism: Giraph's fixed overhead grows with the cluster.
    assert!(
        g128.metrics.phases.overhead > g16.metrics.phases.overhead,
        "Giraph overhead {} @128 vs {} @16",
        g128.metrics.phases.overhead,
        g16.metrics.phases.overhead
    );
}

/// Finding 5 (§5.6): GraphX's per-iteration cost grows with the iteration
/// count (lineage), and WCC on the road network fails at every cluster
/// size.
#[test]
fn finding_5_s5_6_graphx_degrades_with_iterations_and_fails_wcc_on_wrn() {
    // Per-iteration degradation, measured under equal conditions.
    let ds = dataset(DatasetKind::Twitter);
    let gx = graphbench_engines::graphx::GraphX::default();
    let short = gx.run(&input(&ds, Workload::PageRank(PageRankConfig::fixed(5)), 4, 1 << 30));
    let long = gx.run(&input(&ds, Workload::PageRank(PageRankConfig::fixed(20)), 4, 1 << 30));
    assert!(short.metrics.status.is_ok() && long.metrics.status.is_ok());
    let per_short = short.metrics.phases.execute / 5.0;
    let per_long = long.metrics.phases.execute / 20.0;
    assert!(
        per_long > per_short,
        "per-iteration cost should grow: {per_short} at 5 iters vs {per_long} at 20"
    );
    // WCC/WRN is a failure column at every cluster size.
    let mut r = paper_runner();
    for machines in [16, 32, 64, 128] {
        let rec = run(&mut r, SystemId::GraphX, WorkloadKind::Wcc, DatasetKind::Wrn, machines);
        assert!(!rec.metrics.status.is_ok(), "GraphX WCC WRN@{machines} unexpectedly completed");
    }
}

/// Finding 6 (§5.10): the MapReduce systems are slow but never OOM; HaLoop
/// is faster than Hadoop yet by less than 2x, and its shuffle bug kills
/// long jobs at 64/128 machines.
#[test]
fn finding_6_s5_10_hadoop_family_slow_but_never_oom_haloop_under_2x() {
    // Slow: an order of magnitude behind Blogel-V end-to-end.
    let mut r = paper_runner();
    let hd = run(&mut r, SystemId::Hadoop, WorkloadKind::Wcc, DatasetKind::Twitter, 16);
    let bv = run(&mut r, SystemId::BlogelV, WorkloadKind::Wcc, DatasetKind::Twitter, 16);
    assert!(hd.metrics.status.is_ok() && bv.metrics.status.is_ok());
    assert!(
        hd.metrics.total_time() > 5.0 * bv.metrics.total_time(),
        "Hadoop {} vs Blogel-V {}",
        hd.metrics.total_time(),
        bv.metrics.total_time()
    );
    // Never OOM: even the road-network failure is a timeout, not OOM.
    let mut tiny = tiny_runner();
    let to = run(&mut tiny, SystemId::Hadoop, WorkloadKind::Sssp, DatasetKind::Wrn, 16);
    assert_eq!(to.cell(), "TO");
    // HaLoop: faster, under 2x, and SHFL on long jobs at large clusters.
    let ds = dataset(DatasetKind::Twitter);
    let pr = Workload::PageRank(PageRankConfig::fixed(10));
    let hd = graphbench_engines::hadoop::Hadoop.run(&input(&ds, pr, 16, 1 << 30));
    let hl = graphbench_engines::hadoop::HaLoop.run(&input(&ds, pr, 16, 1 << 30));
    let (t_hd, t_hl) = (hd.metrics.total_time(), hl.metrics.total_time());
    assert!(t_hl < t_hd && t_hd < 2.0 * t_hl, "Hadoop {t_hd} vs HaLoop {t_hl}");
    let shfl = run(&mut tiny, SystemId::HaLoop, WorkloadKind::PageRank, DatasetKind::Twitter, 64);
    assert_eq!(shfl.cell(), "SHFL");
    let short = run(&mut tiny, SystemId::HaLoop, WorkloadKind::KHop, DatasetKind::Twitter, 64);
    assert!(short.metrics.status.is_ok(), "{:?}", short.metrics.status);
}

/// Finding 7 (§5.11): Vertica's I/O and network costs grow with the
/// cluster size, and it is not competitive with the native graph systems.
#[test]
fn finding_7_s5_11_vertica_io_and_network_grow_with_cluster_size() {
    use graphbench_engines::vertica::Vertica;
    let ds = dataset(DatasetKind::Twitter);
    let w = Workload::PageRank(PageRankConfig::fixed(10));
    let small = Vertica::default().run(&input(&ds, w, 8, 1 << 30));
    let large = Vertica::default().run(&input(&ds, w, 64, 1 << 30));
    assert!(small.metrics.status.is_ok() && large.metrics.status.is_ok());
    assert!(
        large.metrics.network_bytes > small.metrics.network_bytes,
        "network: {} @64 vs {} @8",
        large.metrics.network_bytes,
        small.metrics.network_bytes
    );
    assert!(
        large.metrics.phases.execute > small.metrics.phases.execute,
        "execute: {} @64 vs {} @8",
        large.metrics.phases.execute,
        small.metrics.phases.execute
    );
    // Not competitive: several times slower than Blogel-V (Figure 12).
    let mut r = paper_runner();
    let v = run(&mut r, SystemId::Vertica, WorkloadKind::Sssp, DatasetKind::Uk0705, 32);
    let bv = run(&mut r, SystemId::BlogelV, WorkloadKind::Sssp, DatasetKind::Uk0705, 32);
    assert!(v.metrics.status.is_ok() && bv.metrics.status.is_ok());
    assert!(
        v.metrics.total_time() > 3.0 * bv.metrics.total_time(),
        "Vertica {} vs Blogel-V {}",
        v.metrics.total_time(),
        bv.metrics.total_time()
    );
}

/// Finding 8 (Table 9): COST — the best parallel system is only a small
/// factor faster than one thread for PageRank, while the single thread's
/// better algorithms beat the whole cluster outright on road-network
/// reachability.
#[test]
fn finding_8_table9_cost_single_thread_beats_clusters_on_wrn_reachability() {
    let mut r = paper_runner();
    let st = run(&mut r, SystemId::SingleThread, WorkloadKind::Wcc, DatasetKind::Wrn, 1);
    let bv = run(&mut r, SystemId::BlogelV, WorkloadKind::Wcc, DatasetKind::Wrn, 16);
    assert!(st.metrics.status.is_ok() && bv.metrics.status.is_ok());
    assert!(
        bv.metrics.total_time() > 5.0 * st.metrics.total_time(),
        "WRN WCC: 16 machines {} vs one thread {}",
        bv.metrics.total_time(),
        st.metrics.total_time()
    );
    // PageRank on the power-law graph parallelizes: the cluster wins.
    let st = run(&mut r, SystemId::SingleThread, WorkloadKind::PageRank, DatasetKind::Twitter, 1);
    let bv = run(&mut r, SystemId::BlogelV, WorkloadKind::PageRank, DatasetKind::Twitter, 16);
    assert!(st.metrics.status.is_ok() && bv.metrics.status.is_ok());
    assert!(
        bv.metrics.total_time() < st.metrics.total_time(),
        "Twitter PR: 16 machines {} vs one thread {}",
        bv.metrics.total_time(),
        st.metrics.total_time()
    );
}

/// Finding 9 (Table 7, §5.9): only Blogel-V completes any workload on the
/// largest graph at 128 machines; the others die of OOM or the MPI
/// overflow.
#[test]
fn finding_9_table7_s5_9_only_blogel_v_completes_clueweb_at_128() {
    let mut r = tiny_runner();
    let cw = DatasetKind::ClueWeb;
    let bv_pr = run(&mut r, SystemId::BlogelV, WorkloadKind::PageRank, cw, 128);
    assert!(bv_pr.metrics.status.is_ok(), "{:?}", bv_pr.metrics.status);
    let bv_wcc = run(&mut r, SystemId::BlogelV, WorkloadKind::Wcc, cw, 128);
    assert!(bv_wcc.metrics.status.is_ok(), "{:?}", bv_wcc.metrics.status);
    let giraph = run(&mut r, SystemId::Giraph, WorkloadKind::PageRank, cw, 128);
    assert_eq!(giraph.cell(), "OOM");
    let gl = run(&mut r, gl_random_iterations(true), WorkloadKind::PageRank, cw, 128);
    assert_eq!(gl.cell(), "OOM");
    let bb = run(&mut r, SystemId::BlogelB, WorkloadKind::Wcc, cw, 128);
    assert_eq!(bb.cell(), "MPI");
}

/// Figure 7 / §5.9: Blogel-B's MPI buffer overflow on the paper-scale road
/// network renders as the "MPI" failure cell.
#[test]
fn blogel_b_overflows_on_the_road_network() {
    let mut r = Runner::new(PaperEnv::new(Scale { base: 600 }, 11));
    let rec = r.run(&ExperimentSpec {
        system: SystemId::BlogelB,
        workload: WorkloadKind::KHop,
        dataset: DatasetKind::Wrn,
        machines: 16,
    });
    assert_eq!(rec.cell(), "MPI");
}

/// §5.10: HaLoop's shuffle bug kills long jobs on large clusters, while
/// short jobs (K-hop) escape it.
#[test]
fn haloop_shuffle_bug_hits_only_long_jobs_on_large_clusters() {
    let ds = dataset(DatasetKind::Twitter);
    let pr = Workload::PageRank(PageRankConfig::fixed(10));
    let long = graphbench_engines::hadoop::HaLoop.run(&input(&ds, pr, 64, 1 << 30));
    assert_eq!(long.metrics.status.code(), "SHFL");
    let short =
        graphbench_engines::hadoop::HaLoop.run(&input(&ds, Workload::khop3(0), 64, 1 << 30));
    assert!(short.metrics.status.is_ok());
}

/// §5.7: Flink does not reclaim all memory between jobs; a workload that
/// fits on a fresh cluster OOMs after a few jobs without a restart.
#[test]
fn gelly_leaks_memory_across_jobs_until_oom() {
    use graphbench_engines::gelly::Gelly;
    let ds = dataset(DatasetKind::Twitter);
    let budget = 2 << 20;
    let fresh =
        Gelly { prior_jobs: 0, ..Gelly::default() }.run(&input(&ds, Workload::Wcc, 4, budget));
    assert!(fresh.metrics.status.is_ok(), "{:?}", fresh.metrics.status);
    let stale =
        Gelly { prior_jobs: 5, ..Gelly::default() }.run(&input(&ds, Workload::Wcc, 4, budget));
    assert_eq!(stale.metrics.status.code(), "OOM");
}

/// §5.11: Vertica's per-iteration catalog and shuffle overhead grows with
/// the cluster, so adding machines makes execution *slower*.
#[test]
fn vertica_gets_slower_as_machines_are_added() {
    use graphbench_engines::vertica::Vertica;
    let ds = dataset(DatasetKind::Twitter);
    let w = Workload::PageRank(PageRankConfig::fixed(10));
    let small = Vertica::default().run(&input(&ds, w, 8, 1 << 30));
    let large = Vertica::default().run(&input(&ds, w, 64, 1 << 30));
    assert!(
        large.metrics.phases.execute > small.metrics.phases.execute,
        "64 machines {} vs 8 machines {}",
        large.metrics.phases.execute,
        small.metrics.phases.execute
    );
}

/// Like [`input`], but with a long execution (`work_scale`) to fault into
/// and a fault schedule attached.
fn faulted_input<'a>(
    ds: &'a (EdgeList, CsrGraph),
    workload: Workload,
    machines: usize,
    faults: FaultPlan,
) -> EngineInput<'a> {
    let mut cluster = ClusterSpec::r3_xlarge(machines, 1 << 30);
    cluster.work_scale = 10_000.0;
    cluster.faults = faults;
    EngineInput {
        edges: &ds.0,
        graph: &ds.1,
        workload,
        cluster,
        seed: 7,
        scale: ScaleInfo::actual(&ds.0),
    }
}

/// Table 1, exercised end-to-end: a global checkpoint recovers cheaper
/// than restarting from input, and lineage recompute cost grows with the
/// iterations since the last materialization point. Every recovered run
/// reproduces the fault-free answer.
#[test]
fn table1_checkpoint_beats_restart_and_lineage_cost_grows_with_depth() {
    use graphbench_engines::graphx::GraphX;
    use graphbench_engines::pregel::Giraph;
    let ds = dataset(DatasetKind::Twitter);
    let pr = Workload::PageRank(PageRankConfig::fixed(20));

    // Giraph: a crash at 75% of execution replays from the last global
    // checkpoint instead of from the start of execution.
    let clean = Giraph::default().run(&faulted_input(&ds, pr, 8, FaultPlan::none()));
    assert!(clean.metrics.status.is_ok(), "{:?}", clean.metrics.status);
    let p = clean.metrics.phases;
    let crash = |alpha: f64| FaultPlan::single(p.overhead + p.load + alpha * p.execute, 3);
    let restart = Giraph::default().run(&faulted_input(&ds, pr, 8, crash(0.75)));
    let ckpt = Giraph { checkpoint_every: Some(5), ..Giraph::default() }.run(&faulted_input(
        &ds,
        pr,
        8,
        crash(0.75),
    ));
    assert_eq!(clean.result, restart.result, "restart-from-input changed the answer");
    assert_eq!(clean.result, ckpt.result, "checkpoint replay changed the answer");
    let (c_restart, c_ckpt) = (restart.journal.fault_seconds(), ckpt.journal.fault_seconds());
    assert!(c_restart > 0.0 && c_ckpt > 0.0, "restart {c_restart}, ckpt {c_ckpt}");
    assert!(c_ckpt < c_restart, "ckpt recovery {c_ckpt} should undercut restart {c_restart}");

    // GraphX: without checkpoints, lineage rewinds to the start of
    // execution, so recovery cost grows with how deep the crash lands...
    let gx = || GraphX { num_partitions: Some(64), ..GraphX::default() };
    let clean = gx().run(&faulted_input(&ds, pr, 8, FaultPlan::none()));
    assert!(clean.metrics.status.is_ok(), "{:?}", clean.metrics.status);
    let p = clean.metrics.phases;
    let crash = |alpha: f64| FaultPlan::single(p.overhead + p.load + alpha * p.execute, 2);
    let mut last = 0.0;
    for alpha in [0.3, 0.55, 0.8] {
        let out = gx().run(&faulted_input(&ds, pr, 8, crash(alpha)));
        assert_eq!(clean.result, out.result, "crash at {alpha} changed the answer");
        let cost = out.journal.fault_seconds();
        assert!(cost > last, "crash at {alpha}: lineage cost {cost} vs shallower {last}");
        last = cost;
    }
    // ...and a checkpoint every 5 iterations bounds the rewind.
    let ckpt = GraphX { num_partitions: Some(64), checkpoint_every: Some(5), ..GraphX::default() }
        .run(&faulted_input(&ds, pr, 8, crash(0.8)));
    assert_eq!(clean.result, ckpt.result, "lineage + checkpoint changed the answer");
    let c_ckpt = ckpt.journal.fault_seconds();
    assert!(c_ckpt < last, "ckpt-bounded lineage {c_ckpt} vs unbounded {last}");
}

/// §5.10: Hadoop spends more time in I/O wait than in user CPU — the
/// disk-bound MapReduce signature.
#[test]
fn hadoop_is_io_bound() {
    let ds = dataset(DatasetKind::Twitter);
    let out = graphbench_engines::hadoop::Hadoop.run(&input(
        &ds,
        Workload::PageRank(PageRankConfig::fixed(5)),
        4,
        1 << 30,
    ));
    let cpu = out.metrics.cpu;
    assert!(
        cpu.io_wait_avg > cpu.user_avg,
        "I/O wait {:.3} should exceed user {:.3}",
        cpu.io_wait_avg,
        cpu.user_avg
    );
}
