//! Properties over 64 seeded cases each: the BSP runtime produces
//! reference-equal answers on random graphs, machine counts, and seeds —
//! partitioning and distribution must never change results.

use graphbench_algos::reference;
use graphbench_algos::workload::PageRankConfig;
use graphbench_engines::bsp::{run_bsp, BspConfig};
use graphbench_engines::programs::{
    wcc_labels, KHopProgram, PageRankProgram, SsspProgram, WccProgram,
};
use graphbench_graph::builder::csr_from_pairs;
use graphbench_graph::rng::{for_each_seed, Rng};
use graphbench_graph::CsrGraph;
use graphbench_partition::EdgeCutPartition;
use graphbench_sim::{Cluster, ClusterSpec, CostProfile};

fn arb_graph(rng: &mut Rng) -> CsrGraph {
    let pairs: Vec<_> =
        (0..1 + rng.below(119)).map(|_| (rng.below_u32(25), rng.below_u32(25))).collect();
    csr_from_pairs(&pairs)
}

fn cluster(machines: usize) -> Cluster {
    Cluster::new(ClusterSpec::r3_xlarge(machines, 1 << 30), CostProfile::cpp_mpi())
}

#[test]
fn bsp_wcc_matches_reference() {
    for_each_seed(64, |_, rng| {
        let g = arb_graph(rng);
        let machines = 1 + rng.below(8);
        let seed = rng.below(50) as u64;
        let part = EdgeCutPartition::random(g.num_vertices() as u64, machines, seed);
        let mut cl = cluster(machines);
        let mut prog = WccProgram::new(g.num_vertices(), 8);
        let out = run_bsp(&mut cl, &g, &part, &mut prog, &BspConfig::default()).unwrap();
        assert_eq!(wcc_labels(out.states), reference::wcc(&g));
        // Transient message memory is returned; only the permanently
        // materialized reverse edges (8 B each, charged via Ctx::alloc)
        // may remain resident.
        let residual: u64 = (0..machines).map(|m| cl.mem_in_use(m)).sum();
        assert!(residual <= g.num_edges() * 8, "residual {} bytes", residual);
    });
}

#[test]
fn bsp_sssp_matches_reference() {
    for_each_seed(64, |_, rng| {
        let g = arb_graph(rng);
        let machines = 1 + rng.below(8);
        let seed = rng.below(50) as u64;
        let src_raw = rng.below_u32(25);
        let src = src_raw % g.num_vertices() as u32;
        let part = EdgeCutPartition::random(g.num_vertices() as u64, machines, seed);
        let mut cl = cluster(machines);
        let mut prog = SsspProgram::new(src);
        let out = run_bsp(&mut cl, &g, &part, &mut prog, &BspConfig::default()).unwrap();
        assert_eq!(out.states, reference::sssp(&g, src));
        // SSSP allocates nothing permanent: all buffers must be returned.
        for m in 0..machines {
            assert_eq!(cl.mem_in_use(m), 0, "machine {} leaked", m);
        }
    });
}

#[test]
fn bsp_khop_matches_reference() {
    for_each_seed(64, |_, rng| {
        let g = arb_graph(rng);
        let machines = 1 + rng.below(8);
        let seed = rng.below(50) as u64;
        let src_raw = rng.below_u32(25);
        let k = rng.below_u32(5);
        let src = src_raw % g.num_vertices() as u32;
        let part = EdgeCutPartition::random(g.num_vertices() as u64, machines, seed);
        let mut cl = cluster(machines);
        let mut prog = KHopProgram::new(src, k);
        let out = run_bsp(&mut cl, &g, &part, &mut prog, &BspConfig::default()).unwrap();
        assert_eq!(out.states, reference::khop(&g, src, k));
        // K-hop never runs more than k + 2 supersteps.
        assert!(out.supersteps <= k as u64 + 2);
    });
}

#[test]
fn bsp_pagerank_matches_reference() {
    for_each_seed(64, |_, rng| {
        let g = arb_graph(rng);
        let machines = 1 + rng.below(8);
        let seed = rng.below(50) as u64;
        let cfg = PageRankConfig::fixed(8);
        let part = EdgeCutPartition::random(g.num_vertices() as u64, machines, seed);
        let mut cl = cluster(machines);
        let mut prog = PageRankProgram::new(cfg);
        let out = run_bsp(&mut cl, &g, &part, &mut prog, &BspConfig::default()).unwrap();
        let (want, _) = reference::pagerank(&g, &cfg);
        for (a, b) in out.states.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9, "{} vs {}", a, b);
        }
    });
}

#[test]
fn machine_count_never_changes_results() {
    for_each_seed(64, |_, rng| {
        let g = arb_graph(rng);
        let seed = rng.below(20) as u64;
        let single = {
            let part = EdgeCutPartition::random(g.num_vertices() as u64, 1, seed);
            let mut cl = cluster(1);
            let out = run_bsp(
                &mut cl,
                &g,
                &part,
                &mut WccProgram::new(g.num_vertices(), 8),
                &BspConfig::default(),
            )
            .unwrap();
            wcc_labels(out.states)
        };
        for machines in [2usize, 5, 8] {
            let part = EdgeCutPartition::random(g.num_vertices() as u64, machines, seed);
            let mut cl = cluster(machines);
            let out = run_bsp(
                &mut cl,
                &g,
                &part,
                &mut WccProgram::new(g.num_vertices(), 8),
                &BspConfig::default(),
            )
            .unwrap();
            assert_eq!(&wcc_labels(out.states), &single, "machines {}", machines);
        }
    });
}

mod fault_tolerance {
    use graphbench_algos::workload::PageRankConfig;
    use graphbench_algos::Workload;
    use graphbench_engines::hadoop::Hadoop;
    use graphbench_engines::pregel::Giraph;
    use graphbench_engines::{Engine, EngineInput, ScaleInfo};
    use graphbench_gen::{Dataset, DatasetKind, Scale};
    use graphbench_sim::{ClusterSpec, FaultPlan};

    fn input(
        ds: &(graphbench_graph::EdgeList, graphbench_graph::CsrGraph),
        fault_at: Option<f64>,
    ) -> EngineInput<'_> {
        let mut cluster = ClusterSpec::r3_xlarge(8, 1 << 30);
        cluster.work_scale = 10_000.0; // make execution long enough to fault into
        cluster.faults = fault_at.map(|at_time| FaultPlan::single(at_time, 3)).unwrap_or_default();
        EngineInput {
            edges: &ds.0,
            graph: &ds.1,
            workload: Workload::PageRank(PageRankConfig::fixed(20)),
            cluster,
            seed: 7,
            scale: ScaleInfo::actual(&ds.0),
        }
    }

    fn dataset() -> (graphbench_graph::EdgeList, graphbench_graph::CsrGraph) {
        let d = Dataset::generate(DatasetKind::Twitter, Scale { base: 400 }, 3);
        let g = d.to_csr();
        (d.edges, g)
    }

    #[test]
    fn checkpointing_bounds_giraph_recovery() {
        let ds = dataset();
        let clean = Giraph::default().run(&input(&ds, None));
        let fault_at = clean.metrics.total_time() * 0.7;
        // No checkpointing: the failure replays everything since execution
        // started.
        let restart = Giraph::default().run(&input(&ds, Some(fault_at)));
        // Checkpoint every 4 supersteps: replay is bounded.
        let ckpt = Giraph { checkpoint_every: Some(4), ..Giraph::default() }
            .run(&input(&ds, Some(fault_at)));
        assert!(clean.metrics.status.is_ok());
        assert!(restart.metrics.status.is_ok());
        assert!(ckpt.metrics.status.is_ok());
        // Results are identical in every case (deterministic replay).
        assert_eq!(clean.result, restart.result);
        assert_eq!(clean.result, ckpt.result);
        // The failure costs time; checkpointing reduces the damage but the
        // checkpoints themselves are not free.
        let (t_clean, t_restart, t_ckpt) =
            (clean.metrics.total_time(), restart.metrics.total_time(), ckpt.metrics.total_time());
        assert!(t_restart > t_clean, "restart {t_restart} vs clean {t_clean}");
        assert!(t_ckpt < t_restart, "ckpt {t_ckpt} vs restart {t_restart}");
        assert!(t_ckpt > t_clean, "ckpt {t_ckpt} vs clean {t_clean}");
    }

    #[test]
    fn hadoop_task_reexecution_is_cheap() {
        let ds = dataset();
        let clean = Hadoop.run(&input(&ds, None));
        let fault_at = clean.metrics.total_time() * 0.7;
        let faulted = Hadoop.run(&input(&ds, Some(fault_at)));
        assert!(clean.metrics.status.is_ok() && faulted.metrics.status.is_ok());
        assert_eq!(clean.result, faulted.result);
        let overhead = faulted.metrics.total_time() / clean.metrics.total_time();
        // Re-execution loses at most one iteration slice: single-digit
        // percent, not a rollback of the whole run.
        assert!(overhead < 1.10, "overhead factor {overhead}");
        assert!(overhead >= 1.0);
    }
}
