//! Unified fault detection and recovery accounting.
//!
//! The paper's Table 1 lists one fault-tolerance mechanism per system:
//! Giraph/Pregel write global checkpoints and replay from the last one,
//! Hadoop/HaLoop re-execute the failed tasks, GraphX recomputes lost RDD
//! partitions from lineage, and Vertica restarts the query. Every engine
//! polls the same [`Recovery`] value at its barriers (which drains
//! `Cluster::take_crash`), so detection timing, journal labeling
//! (`recovery` / `retry`), and registry accounting are uniform while the
//! *cost formula* stays the mechanism's own.
//!
//! Cost vs. state: recovery charges simulated time (a `Stall` under the
//! `recovery` label — workers wait while the replacement catches up), and
//! engines whose recovery mechanism recomputes state (BSP checkpoint
//! replay, GraphX lineage recompute) actually restore a snapshot and replay
//! the computation so a recovered run provably reproduces the fault-free
//! answer bit-for-bit. Transient faults (lost shuffle fetch, failed HDFS
//! write) never abort a run: they pay a bounded exponential backoff
//! (`RETRY_BACKOFF_BASE_SECS * RETRY_BACKOFF_FACTOR^i` per failed attempt,
//! at most [`RETRY_MAX_ATTEMPTS`] attempts) under the `retry` label and
//! then succeed.
//!
//! Elastic membership changes (`resize@T:±mM`) are the fifth path through
//! this module: [`Recovery::at_barrier`] drains due resizes *after* crash
//! recovery (a crash is detected and paid under the membership it happened
//! in), computes the deterministic fragment placement for the new machine
//! count via `graphbench_partition::elastic::rebalance`, and lets the
//! cluster charge the migration (`migrate`-labeled transfers, departing-
//! machine snapshots, index rebuilds). The applied resize is a consistent
//! cut: the recovery point advances to it, so a later crash never replays
//! across a membership change.

use graphbench_sim::{Cluster, SimError};

pub use graphbench_sim::RETRY_MAX_ATTEMPTS;

/// Backoff stall for the first failed attempt of a transient fault.
pub const RETRY_BACKOFF_BASE_SECS: f64 = 0.5;
/// Multiplier between consecutive backoff stalls.
pub const RETRY_BACKOFF_FACTOR: f64 = 2.0;

/// What one [`Recovery::at_barrier`] poll observed and paid for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BarrierEvents {
    /// At least one crash was recovered. Callers whose mechanism recomputes
    /// state must restore their snapshot and replay.
    pub crashed: bool,
    /// At least one elastic resize was applied. Callers holding crash
    /// snapshots should re-capture them at the current superstep — the new
    /// membership is a consistent cut that replay never crosses.
    pub resized: bool,
}

/// The four Table 1 fault-tolerance mechanisms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryModel {
    /// Pregel/Giraph: reload the last global checkpoint and replay the
    /// supersteps since (restart from input when no checkpoint exists).
    CheckpointReplay,
    /// Hadoop/HaLoop: only the failed machine's tasks of the current
    /// iteration re-run, spread over the surviving machines.
    TaskReexecution,
    /// GraphX: lost RDD partitions are recomputed from lineage, back to the
    /// last materialization point.
    LineageRecompute,
    /// Vertica (and the non-checkpointing native systems): the query
    /// restarts from the beginning of execution.
    QueryRestart,
}

/// Per-run recovery state one engine threads through its barriers.
#[derive(Debug, Clone)]
pub struct Recovery {
    model: RecoveryModel,
    /// Checkpoint bytes to reload before a replay (CheckpointReplay only).
    checkpoint_bytes: u64,
    /// Elapsed time the mechanism can rewind to: execution start, or the
    /// last checkpoint / materialization point.
    recovery_point: f64,
    /// Start of the current iteration (TaskReexecution's unit of loss).
    iteration_start: f64,
    /// Crashes detected and paid for so far.
    crashes_recovered: u64,
}

impl Recovery {
    /// Start tracking at the current clock (call right after
    /// `begin_phase(Execute)`, where every engine's legacy code anchored
    /// its restart point).
    pub fn new(cluster: &Cluster, model: RecoveryModel) -> Self {
        let now = cluster.elapsed();
        Recovery {
            model,
            checkpoint_bytes: 0,
            recovery_point: now,
            iteration_start: now,
            crashes_recovered: 0,
        }
    }

    /// Bytes a checkpoint-replay recovery reloads from HDFS.
    pub fn with_checkpoint_bytes(mut self, bytes: u64) -> Self {
        self.checkpoint_bytes = bytes;
        self
    }

    /// A checkpoint / materialization finished now: crashes after this
    /// point replay from here.
    pub fn mark_checkpoint(&mut self, cluster: &Cluster) {
        self.recovery_point = cluster.elapsed();
    }

    /// A new iteration starts now (TaskReexecution loses at most this
    /// iteration's work).
    pub fn begin_iteration(&mut self, cluster: &Cluster) {
        self.iteration_start = cluster.elapsed();
    }

    /// The elapsed time recovery rewinds to.
    pub fn recovery_point(&self) -> f64 {
        self.recovery_point
    }

    /// Crashes detected and paid for so far.
    pub fn crashes_recovered(&self) -> u64 {
        self.crashes_recovered
    }

    /// Poll for faults and membership changes at a barrier: transient
    /// faults pay their bounded retry backoff, every due crash pays this
    /// model's recovery cost (under the membership it happened in), then
    /// every due elastic resize migrates fragments onto the new machine
    /// set. The caller's journal label is preserved. Consult the returned
    /// [`BarrierEvents`]: on `crashed`, restore state from the snapshot and
    /// replay if the mechanism recomputes state; on `resized`, refresh any
    /// held crash snapshot to the current superstep.
    pub fn at_barrier(&mut self, cluster: &mut Cluster) -> Result<BarrierEvents, SimError> {
        self.poll_transients(cluster)?;
        let crashed = self.poll_crashes(cluster)?;
        let resized = self.poll_resizes(cluster)?;
        Ok(BarrierEvents { crashed, resized })
    }

    fn poll_transients(&mut self, cluster: &mut Cluster) -> Result<(), SimError> {
        while let Some(fault) = cluster.take_transient() {
            let saved = cluster.label();
            cluster.set_label("retry");
            let mut backoff = RETRY_BACKOFF_BASE_SECS;
            for _ in 0..fault.attempts().min(RETRY_MAX_ATTEMPTS) {
                cluster.advance_stall(backoff)?;
                backoff *= RETRY_BACKOFF_FACTOR;
            }
            cluster.set_label(saved);
        }
        Ok(())
    }

    fn poll_crashes(&mut self, cluster: &mut Cluster) -> Result<bool, SimError> {
        let mut crashed = false;
        while let Some(_machine) = cluster.take_crash() {
            crashed = true;
            self.crashes_recovered += 1;
            let saved = cluster.label();
            cluster.set_label("recovery");
            let stall = match self.model {
                RecoveryModel::CheckpointReplay => {
                    if self.checkpoint_bytes > 0 {
                        let machines = cluster.machines();
                        cluster.hdfs_read(&crate::even_share(self.checkpoint_bytes, machines))?;
                    }
                    cluster.elapsed() - self.recovery_point
                }
                RecoveryModel::TaskReexecution => {
                    let survivors = (cluster.physical_machines().max(2) - 1) as f64;
                    (cluster.elapsed() - self.iteration_start) / survivors
                }
                RecoveryModel::LineageRecompute | RecoveryModel::QueryRestart => {
                    cluster.elapsed() - self.recovery_point
                }
            };
            cluster.advance_stall(stall.max(0.0))?;
            cluster.set_label(saved);
        }
        Ok(crashed)
    }

    fn poll_resizes(&mut self, cluster: &mut Cluster) -> Result<bool, SimError> {
        let mut resized = false;
        while let Some(delta) = cluster.take_resize() {
            resized = true;
            let frags = cluster.machines();
            let target = (cluster.physical_machines() as i64 + delta).max(1) as usize;
            let map = graphbench_partition::elastic::rebalance(frags, target);
            cluster.apply_resize(target, &map)?;
            // The applied resize is a consistent cut: post-resize crashes
            // replay from here, never across the migration.
            let now = cluster.elapsed();
            self.recovery_point = self.recovery_point.max(now);
            self.iteration_start = self.iteration_start.max(now);
        }
        Ok(resized)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbench_sim::{ClusterSpec, CostProfile, FaultEvent, FaultPlan, Phase};

    fn cluster(plan: FaultPlan) -> Cluster {
        let mut c = Cluster::new(
            ClusterSpec { faults: plan, ..ClusterSpec::r3_xlarge(4, 1 << 30) },
            CostProfile::cpp_mpi(),
        );
        c.begin_phase(Phase::Execute);
        c
    }

    #[test]
    fn checkpoint_replay_stalls_back_to_the_recovery_point() {
        let mut c = cluster(FaultPlan::single(5.0, 1));
        let mut r = Recovery::new(&c, RecoveryModel::CheckpointReplay);
        c.advance_stall(4.0).unwrap();
        r.mark_checkpoint(&c); // checkpoint at t=4
        c.advance_stall(6.0).unwrap(); // crash due inside here
        assert!(r.at_barrier(&mut c).unwrap().crashed);
        // Replays t=10 back to t=4: a 6 s stall under the recovery label.
        let ev = c.journal().events().last().unwrap();
        assert_eq!(ev.label, "recovery");
        assert!((ev.dt - 6.0).abs() < 1e-12, "{}", ev.dt);
        assert_eq!(r.crashes_recovered(), 1);
        assert!(!r.at_barrier(&mut c).unwrap().crashed, "crash is consumed");
    }

    #[test]
    fn checkpoint_replay_reloads_checkpoint_bytes() {
        let mut c = cluster(FaultPlan::single(1.0, 0));
        let mut r = Recovery::new(&c, RecoveryModel::CheckpointReplay).with_checkpoint_bytes(4_000);
        c.advance_stall(2.0).unwrap();
        r.at_barrier(&mut c).unwrap();
        let kinds: Vec<_> =
            c.journal().events().iter().map(|e| (e.kind, e.label.clone())).collect();
        assert!(
            kinds.iter().any(|(k, l)| *k == graphbench_sim::EventKind::HdfsRead && l == "recovery"),
            "{kinds:?}"
        );
    }

    #[test]
    fn task_reexecution_spreads_the_iteration_over_survivors() {
        let mut c = cluster(FaultPlan::single(5.0, 1));
        let mut r = Recovery::new(&c, RecoveryModel::TaskReexecution);
        c.advance_stall(4.0).unwrap();
        r.begin_iteration(&c);
        c.advance_stall(6.0).unwrap();
        assert!(r.at_barrier(&mut c).unwrap().crashed);
        // Lost 6 s of iteration work, redone by 3 survivors: 2 s.
        let ev = c.journal().events().last().unwrap();
        assert!((ev.dt - 2.0).abs() < 1e-12, "{}", ev.dt);
    }

    #[test]
    fn query_restart_rewinds_to_execution_start() {
        let mut c = cluster(FaultPlan::single(5.0, 1));
        c.advance_stall(1.0).unwrap();
        let mut r = Recovery::new(&c, RecoveryModel::QueryRestart); // exec starts at t=1
        c.advance_stall(9.0).unwrap();
        assert!(r.at_barrier(&mut c).unwrap().crashed);
        let ev = c.journal().events().last().unwrap();
        assert!((ev.dt - 9.0).abs() < 1e-12, "{}", ev.dt);
    }

    #[test]
    fn transients_pay_exponential_backoff_under_the_retry_label() {
        let plan = FaultPlan {
            events: vec![FaultEvent::LostShuffleFetch { at_time: 0.5, machine: 2, attempts: 3 }],
        };
        let mut c = cluster(plan);
        let mut r = Recovery::new(&c, RecoveryModel::QueryRestart);
        c.advance_stall(1.0).unwrap();
        assert!(!r.at_barrier(&mut c).unwrap().crashed, "transients are not crashes");
        let retries: Vec<f64> =
            c.journal().events().iter().filter(|e| e.label == "retry").map(|e| e.dt).collect();
        assert_eq!(retries, vec![0.5, 1.0, 2.0]);
        // Label is restored for subsequent charges.
        assert_eq!(c.label(), "execute");
    }

    #[test]
    fn recovery_restores_the_callers_label() {
        let mut c = cluster(FaultPlan::single(0.5, 1));
        let mut r = Recovery::new(&c, RecoveryModel::QueryRestart);
        c.set_label("superstep");
        c.advance_stall(1.0).unwrap();
        assert!(r.at_barrier(&mut c).unwrap().crashed);
        assert_eq!(c.label(), "superstep");
    }

    #[test]
    fn resize_applies_at_the_barrier_and_migrates_state() {
        let plan = FaultPlan::parse("resize@1:-m2").unwrap();
        let mut c = cluster(plan);
        let mut r = Recovery::new(&c, RecoveryModel::QueryRestart);
        c.alloc_all(&[1_000; 4]).unwrap();
        c.advance_stall(2.0).unwrap();
        let ev = r.at_barrier(&mut c).unwrap();
        assert!(ev.resized);
        assert!(!ev.crashed);
        assert_eq!(c.physical_machines(), 2);
        // Fragments 2 and 3 left departing machines via HDFS snapshots;
        // fragment 1 moved over the wire to machine 0.
        assert_eq!(c.frag_map(), &[0, 0, 1, 1]);
        assert!(c.journal().elastic_seconds() > 0.0);
        assert!(c.journal().events().iter().any(|e| e.label == "migrate"));
        assert_eq!(c.registry().counter("faults.resize.applied"), 1);
        assert_eq!(c.registry().counter("elastic.scale_in"), 1);
        assert_eq!(c.registry().counter("elastic.machines.removed"), 2);
        assert_eq!(c.registry().counter("elastic.migrated.fragments"), 3);
        assert_eq!(c.registry().counter("elastic.migrated.bytes"), 3_000);
        // Fragment-indexed memory accounting survives the move.
        for f in 0..4 {
            assert_eq!(c.mem_in_use(f), 1_000);
        }
        assert!(c.unreached_faults().is_empty());
        assert!(!r.at_barrier(&mut c).unwrap().resized, "resize is consumed");
    }

    #[test]
    fn resize_is_a_consistent_cut_for_later_crashes() {
        let plan = FaultPlan::parse("resize@1:+m2; crash@4:m0").unwrap();
        let mut c = cluster(plan);
        let mut r = Recovery::new(&c, RecoveryModel::QueryRestart);
        c.advance_stall(2.0).unwrap();
        assert!(r.at_barrier(&mut c).unwrap().resized);
        assert_eq!(c.physical_machines(), 6);
        let cut = c.elapsed();
        assert!((r.recovery_point() - cut).abs() < 1e-12);
        c.advance_stall(5.0).unwrap();
        assert!(r.at_barrier(&mut c).unwrap().crashed);
        // The restart replays back to the membership cut, not to t=0.
        let ev = c.journal().events().last().unwrap();
        assert_eq!(ev.label, "recovery");
        assert!((ev.dt - 5.0).abs() < 1e-12, "{}", ev.dt);
    }

    #[test]
    fn crash_and_resize_at_one_barrier_recover_then_migrate() {
        let plan = FaultPlan::parse("crash@1:m1; resize@2:-m1").unwrap();
        let mut c = cluster(plan);
        let mut r = Recovery::new(&c, RecoveryModel::QueryRestart);
        c.advance_stall(3.0).unwrap();
        let ev = r.at_barrier(&mut c).unwrap();
        assert!(ev.crashed && ev.resized);
        assert_eq!(c.physical_machines(), 3);
        // The recovery stall is charged before the migration events.
        let labels: Vec<&str> = c.journal().events().iter().map(|e| e.label.as_str()).collect();
        let first_recovery = labels.iter().position(|&l| l == "recovery").unwrap();
        let first_migrate = labels.iter().position(|&l| l == "migrate").unwrap();
        assert!(first_recovery < first_migrate, "{labels:?}");
    }

    #[test]
    fn multiple_crashes_recover_one_by_one() {
        let plan = FaultPlan {
            events: vec![
                FaultEvent::Crash { at_time: 1.0, machine: 0 },
                FaultEvent::Crash { at_time: 2.0, machine: 1 },
            ],
        };
        let mut c = cluster(plan);
        let mut r = Recovery::new(&c, RecoveryModel::QueryRestart);
        c.advance_stall(3.0).unwrap();
        assert!(r.at_barrier(&mut c).unwrap().crashed);
        assert_eq!(r.crashes_recovered(), 2);
        let recoveries = c.journal().events().iter().filter(|e| e.label == "recovery").count();
        assert_eq!(recoveries, 2);
    }
}
