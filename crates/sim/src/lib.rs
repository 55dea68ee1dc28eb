//! Simulated shared-nothing cluster.
//!
//! The paper ran eight systems on 16–128 EC2 `r3.xlarge` machines. This
//! crate is the stand-in: a deterministic resource simulator that the engine
//! implementations drive. Engines execute their algorithms *for real* (the
//! outputs are bit-exact and verified against single-threaded oracles) while
//! charging every elementary operation, network byte, disk byte, and memory
//! allocation to a simulated machine. The simulator turns those charges into
//!
//! * a simulated wall clock (BSP semantics: a superstep costs as much as its
//!   slowest machine — stragglers emerge naturally),
//! * per-machine memory accounting with a hard budget (out-of-memory
//!   failures emerge naturally),
//! * a CPU/network/disk utilization breakdown (the paper's Figure 13), and
//! * per-machine memory time series (the paper's Figure 10).
//!
//! Failure modes mirror the paper's result-table legend: `OOM`, `TO`
//! (24-hour deadline), `MPI` (32-bit aggregation-buffer overflow in
//! Blogel-B's Voronoi partitioner), and `SHFL` (HaLoop's mapper-output race
//! on large clusters).

pub mod cluster;
pub mod cost;
pub mod hosttrace;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod observer;
pub mod registry;
pub mod spec;
pub mod timeline;
pub mod trace;

pub use cluster::{Cluster, Phase, TransientFault};
pub use cost::CostProfile;
pub use hosttrace::HostSpan;
pub use journal::{EventKind, Journal, JournalEvent, LabelCost};
pub use metrics::{CpuBreakdown, PhaseTimes, RunMetrics, RunStatus};
pub use observer::{ClusterObserver, ObserverSet, SuperstepSnapshot};
pub use registry::{Histogram, MetricsRegistry, SECONDS_BUCKETS};
pub use spec::{ClusterSpec, DiskSpec, FaultEvent, FaultPlan, NetworkSpec, RETRY_MAX_ATTEMPTS};
pub use timeline::{Block, CriticalPath, CriticalPathRow, Timeline};
pub use trace::{Trace, TraceSample};

/// Machine index within a cluster.
pub type MachineId = usize;

/// Failures, named as in the paper's result tables (§5, "Empty entries").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A machine exceeded its memory budget.
    Oom { machine: MachineId, requested: u64, in_use: u64, budget: u64 },
    /// Simulated time passed the 24-hour deadline.
    Timeout,
    /// MPI aggregation buffer offset overflowed a 32-bit integer
    /// (Blogel-B's Voronoi partitioner on very large vertex counts, §5.1).
    MpiOverflow { bytes: u64 },
    /// HaLoop's mapper outputs were deleted before all reducers consumed
    /// them (observed on 64- and 128-machine clusters, §5.10).
    Shuffle { iteration: u64 },
}

impl SimError {
    /// The paper's table abbreviation for this failure.
    pub fn code(&self) -> &'static str {
        match self {
            SimError::Oom { .. } => "OOM",
            SimError::Timeout => "TO",
            SimError::MpiOverflow { .. } => "MPI",
            SimError::Shuffle { .. } => "SHFL",
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Oom { machine, requested, in_use, budget } => write!(
                f,
                "OOM on machine {machine}: requested {requested} B with {in_use}/{budget} B in use"
            ),
            SimError::Timeout => write!(f, "timeout: exceeded the 24-hour deadline"),
            SimError::MpiOverflow { bytes } => {
                write!(f, "MPI aggregation overflow: {bytes} B exceeds the 32-bit offset range")
            }
            SimError::Shuffle { iteration } => {
                write!(f, "shuffle failure: mapper output lost at iteration {iteration}")
            }
        }
    }
}

impl std::error::Error for SimError {}
