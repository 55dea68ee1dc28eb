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

use graphbench_sim::{Cluster, SimError};

pub use graphbench_sim::RETRY_MAX_ATTEMPTS;

/// Backoff stall for the first failed attempt of a transient fault.
pub const RETRY_BACKOFF_BASE_SECS: f64 = 0.5;
/// Multiplier between consecutive backoff stalls.
pub const RETRY_BACKOFF_FACTOR: f64 = 2.0;

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

    /// Poll for faults at a barrier: transient faults pay their bounded
    /// retry backoff, then every due crash pays this model's recovery cost.
    /// The caller's journal label is preserved. Returns whether at least
    /// one crash was recovered: callers whose mechanism recomputes state
    /// must then restore their snapshot and replay.
    pub fn at_barrier(&mut self, cluster: &mut Cluster) -> Result<bool, SimError> {
        self.poll_transients(cluster)?;
        self.poll_crashes(cluster)
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
                    let survivors = (cluster.machines().max(2) - 1) as f64;
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
        assert!(r.at_barrier(&mut c).unwrap());
        // Replays t=10 back to t=4: a 6 s stall under the recovery label.
        let ev = c.journal().events().last().unwrap();
        assert_eq!(ev.label, "recovery");
        assert!((ev.dt - 6.0).abs() < 1e-12, "{}", ev.dt);
        assert_eq!(r.crashes_recovered(), 1);
        assert!(!r.at_barrier(&mut c).unwrap(), "crash is consumed");
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
        assert!(r.at_barrier(&mut c).unwrap());
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
        assert!(r.at_barrier(&mut c).unwrap());
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
        assert!(!r.at_barrier(&mut c).unwrap(), "transients are not crashes");
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
        assert!(r.at_barrier(&mut c).unwrap());
        assert_eq!(c.label(), "superstep");
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
        assert!(r.at_barrier(&mut c).unwrap());
        assert_eq!(r.crashes_recovered(), 2);
        let recoveries = c.journal().events().iter().filter(|e| e.label == "recovery").count();
        assert_eq!(recoveries, 2);
    }
}
