//! graphbench — an executable reproduction of *Experimental Analysis of
//! Distributed Graph Systems* (Ammar & Özsu, VLDB 2018).
//!
//! The crate ties the substrates together into the paper's experimental
//! methodology:
//!
//! * [`system`] — the systems under study (Table 1) and their variants
//!   (e.g. GraphLab's sync/async × random/auto × tolerance/iterations grid);
//! * [`paper`] — the paper's environment: the four datasets at a chosen
//!   scale, per-machine memory budgets scaled with the data, per-dataset
//!   work-scale factors that keep simulated times at paper magnitude, and
//!   the fixed traversal sources;
//! * [`runner`] — executes `(system, workload, dataset, cluster-size)`
//!   experiments and collects [`runner::RunRecord`]s;
//! * [`report`] — paper-style tables, CSV/JSON export;
//! * [`stats`] — the multi-seed methodology: Welford accumulators, 95%
//!   confidence intervals, and the [`stats::MultiRunRecord`] seed-sweep
//!   aggregate (`GRAPHBENCH_SEEDS`);
//! * [`findings`] — the paper's nine headline findings as machine-checkable
//!   predicates over seed sweeps (`repro_all --check`);
//! * [`viz`] — the paper's log-visualization tool, rendered as ASCII
//!   (per-machine memory time series, utilization breakdowns, bar groups).
//!
//! # Quickstart
//!
//! ```
//! use graphbench::paper::PaperEnv;
//! use graphbench::runner::{ExperimentSpec, Runner};
//! use graphbench::system::SystemId;
//! use graphbench_algos::WorkloadKind;
//! use graphbench_gen::{DatasetKind, Scale};
//!
//! let env = PaperEnv::new(Scale { base: 800 }, 42);
//! let mut runner = Runner::new(env);
//! let record = runner.run(&ExperimentSpec {
//!     system: SystemId::BlogelV,
//!     workload: WorkloadKind::PageRank,
//!     dataset: DatasetKind::Twitter,
//!     machines: 16,
//! });
//! assert!(record.metrics.status.is_ok());
//! ```

pub mod findings;
pub mod paper;
pub mod report;
pub mod runner;
pub mod stats;
pub mod system;
pub mod viz;

pub use paper::PaperEnv;
pub use runner::{ExperimentSpec, RunRecord, Runner};
pub use stats::{MultiRunRecord, Summary, Welford};
pub use system::SystemId;
