//! Fault tolerance through the engines' public surface (Table 1): a
//! crash injected into Giraph replays from its last checkpoint or the
//! input, and one injected into Hadoop re-executes tasks, each landing on
//! the fault-free answer. The BSP runtime's reference properties live with
//! it, in the engines' `bsp::tests`.

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
