//! Graph representations, input formats, and statistics.
//!
//! This crate is the lowest-level substrate of the graphbench testbed. It
//! provides:
//!
//! * [`EdgeList`] — a simple directed edge list used during generation and
//!   partitioning,
//! * [`CsrGraph`] — a compressed-sparse-row graph with optional in-edge
//!   index, used by every engine,
//! * [`mod@format`] — the three on-disk text formats used by the paper's systems
//!   (`adj`, `adj-long`, `edge`),
//! * [`disk`] — a compact binary CSR format with mmap-backed zero-copy
//!   loading, backing the dataset cache,
//! * [`rng`] — the seeded random stream every generator, sampler and
//!   generated test case draws from,
//! * [`stats`] — degree distributions, effective-diameter estimation, and
//!   component counting used to validate generated datasets against the
//!   paper's Table 3.
//!
//! Vertex identifiers are `u32` ([`VertexId`]): the scaled-down datasets in
//! this reproduction never exceed 2^32 vertices, and halving the id width
//! halves the memory charged to the simulated machines, exactly as the
//! original systems' 32-bit id configurations would.

pub mod builder;
pub mod csr;
pub mod disk;
pub mod edge;
pub mod format;
pub mod rng;
pub mod stats;

pub use builder::{GraphBuilder, SelfEdgePolicy};
pub use csr::{CsrBuilder, CsrGraph};
pub use edge::{Edge, EdgeList};
pub use stats::GraphStats;

/// Identifier of a vertex. Dense, in `0..num_vertices`.
pub type VertexId = u32;

/// Errors produced while building or parsing graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A vertex id in the input was outside the declared vertex range.
    VertexOutOfRange { vertex: u64, num_vertices: u64 },
    /// A text input line could not be parsed.
    Parse { line: usize, message: String },
    /// The input declared an inconsistent neighbour count (adj-long format).
    BadNeighbourCount { line: usize, declared: usize, actual: usize },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, num_vertices } => {
                write!(f, "vertex id {vertex} out of range (graph has {num_vertices} vertices)")
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::BadNeighbourCount { line, declared, actual } => {
                write!(f, "line {line}: declared {declared} neighbours but found {actual}")
            }
        }
    }
}

impl std::error::Error for GraphError {}
