//! Graph partitioners used by the paper's systems.
//!
//! Three families:
//!
//! * **Edge-cut** ([`edge_cut`]) — vertices are assigned to machines, edges
//!   may cross machines. Used by Giraph, Hadoop/HaLoop, and Gelly (random
//!   hashing).
//! * **Vertex-cut** ([`vertex_cut`]) — *edges* are assigned to machines and
//!   vertices are replicated wherever they have an incident edge. Used by
//!   GraphLab/PowerGraph and GraphX. The paper studies GraphLab's Random,
//!   Grid, PDS, and Oblivious strategies and the Auto chooser (§4.4.1); the
//!   replication factor they produce is Table 4 and drives both memory and
//!   mirror-synchronization network traffic.
//! * **Block-centric** ([`voronoi`]) — Blogel's Graph Voronoi Diagram
//!   partitioning groups vertices into connected blocks via multi-round
//!   seed sampling and parallel BFS (§2.3).
//!
//! [`local_index`] supplements the edge-cut family with fragment-local
//! dense vertex ids — the addressing scheme behind the engines' zero-sort
//! radix message shuffle.

pub mod edge_cut;
pub mod local_index;
pub mod metrics;
pub mod pds;
pub mod two_d;
pub mod vertex_cut;
pub mod voronoi;

use graphbench_graph::rng::splitmix64;

pub use edge_cut::EdgeCutPartition;
pub use local_index::LocalIndex;
pub use vertex_cut::{VertexCutPartition, VertexCutStrategy};
pub use voronoi::{BlockPartition, VoronoiConfig};

/// Machine index (partition id). `u16` bounds clusters at 65 536 machines —
/// far beyond the paper's 128 — and keeps replica sets compact.
pub type MachineId = u16;

/// A reusable bitset over machine ids: the sort-and-deduplicate step for a
/// GraphX vertex's executor set, with no per-set allocation.
#[derive(Debug, Clone)]
pub struct MachineBits(Vec<u64>);

impl MachineBits {
    /// An empty set over machines `0..machines`.
    pub fn new(machines: usize) -> Self {
        MachineBits(vec![0; machines.div_ceil(64)])
    }

    pub fn insert(&mut self, m: usize) {
        self.0[m / 64] |= 1u64 << (m % 64);
    }

    /// Hands every member to `emit` in ascending order and empties the set.
    pub fn drain(&mut self, emit: impl FnMut(MachineId)) {
        bit_members(self.0.iter_mut().map(std::mem::take)).for_each(emit)
    }
}

/// Ascending members of a machine set held as bitset words (machine `m` is
/// bit `m % 64` of word `m / 64`).
pub(crate) fn bit_members(words: impl Iterator<Item = u64>) -> impl Iterator<Item = MachineId> {
    words.enumerate().flat_map(|(w, mut bits)| {
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let m = (w * 64 + bits.trailing_zeros() as usize) as MachineId;
                bits &= bits - 1;
                m
            })
        })
    })
}

/// Hash a vertex id (optionally salted by a seed) onto `k` machines.
pub(crate) fn hash_to_machine(v: u64, seed: u64, k: usize) -> MachineId {
    (splitmix64(v ^ seed.rotate_left(32)) % k as u64) as MachineId
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_in_range() {
        for v in 0..1_000u64 {
            let m = hash_to_machine(v, 7, 16);
            assert!(m < 16);
            assert_eq!(m, hash_to_machine(v, 7, 16));
        }
    }

    #[test]
    fn hash_spreads_roughly_evenly() {
        let k = 8;
        let mut counts = vec![0u32; k];
        for v in 0..8_000u64 {
            counts[hash_to_machine(v, 1, k) as usize] += 1;
        }
        for &c in &counts {
            assert!((800..1_200).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn seed_changes_assignment() {
        let a: Vec<_> = (0..100u64).map(|v| hash_to_machine(v, 1, 16)).collect();
        let b: Vec<_> = (0..100u64).map(|v| hash_to_machine(v, 2, 16)).collect();
        assert_ne!(a, b);
    }
}
