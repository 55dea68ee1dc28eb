//! Fragment-local dense vertex indexing.
//!
//! An edge-cut partition names each vertex's owner machine, but the
//! engines' shuffle hot loops need more than ownership: the radix message
//! path (see `graphbench-engines::shuffle`) addresses per-target combiner
//! slots and inbox offset tables by a *dense* per-machine vertex id, so
//! that a message can be filed in O(1) without sorting or searching.
//!
//! [`LocalIndex`] precomputes both directions once per run:
//!
//! * global id → `(machine, local id)` — one table lookup per send,
//!   replacing the per-message ownership lookup *and* yielding the dense
//!   slot address for free;
//! * `(machine, local id)` → global id — the fragment's vertex list.
//!
//! Local ids are assigned in ascending global order within each machine.
//! That makes the index interchangeable with
//! [`EdgeCutPartition::vertices_per_machine`]: the vertex at position `i`
//! of machine `m`'s fragment has local id `i`, and grouping a fragment's
//! inbox by local id is the same order as sorting it by global id.

use crate::edge_cut::EdgeCutPartition;
use crate::MachineId;
use graphbench_graph::VertexId;

/// Precomputed global↔local vertex id maps for one edge-cut placement.
#[derive(Debug, Clone)]
pub struct LocalIndex {
    /// Per global vertex id: owner machine and dense local id.
    loc: Vec<(MachineId, u32)>,
    /// Per machine: fragment vertex list in ascending global id order
    /// (position = local id).
    globals: Vec<Vec<VertexId>>,
    /// Largest fragment size, for sizing shared scratch tables.
    max_locals: usize,
}

impl LocalIndex {
    /// Build the index for an edge-cut placement. `O(n)` once per run;
    /// every per-message lookup afterwards is one array read.
    pub fn build(part: &EdgeCutPartition) -> LocalIndex {
        let assignment = part.assignment();
        let mut globals: Vec<Vec<VertexId>> = vec![Vec::new(); part.machines()];
        let mut loc = Vec::with_capacity(assignment.len());
        for (v, &m) in assignment.iter().enumerate() {
            let frag = &mut globals[m as usize];
            loc.push((m, frag.len() as u32));
            frag.push(v as VertexId);
        }
        let max_locals = globals.iter().map(Vec::len).max().unwrap_or(0);
        LocalIndex { loc, globals, max_locals }
    }

    /// Number of machines in the placement.
    pub fn machines(&self) -> usize {
        self.globals.len()
    }

    /// Number of indexed vertices.
    pub fn num_vertices(&self) -> usize {
        self.loc.len()
    }

    /// Owner machine of `v`. Agrees with [`EdgeCutPartition::machine_of`].
    #[inline]
    pub fn machine_of(&self, v: VertexId) -> MachineId {
        self.loc[v as usize].0
    }

    /// Dense local id of `v` on its owner machine.
    #[inline]
    pub fn local_of(&self, v: VertexId) -> u32 {
        self.loc[v as usize].1
    }

    /// Owner machine and dense local id of `v`, in one lookup.
    #[inline]
    pub fn machine_local_of(&self, v: VertexId) -> (MachineId, u32) {
        self.loc[v as usize]
    }

    /// Machine `m`'s fragment, ascending by global id; the vertex at
    /// position `i` has local id `i`.
    pub fn globals_of(&self, m: usize) -> &[VertexId] {
        &self.globals[m]
    }

    /// Fragment size of machine `m`.
    pub fn num_locals(&self, m: usize) -> usize {
        self.globals[m].len()
    }

    /// Largest fragment size across machines.
    pub fn max_locals(&self) -> usize {
        self.max_locals
    }

    /// Global id of local `l` on machine `m`.
    #[inline]
    #[cfg(test)]
    pub fn global_of(&self, m: usize, l: u32) -> VertexId {
        self.globals[m][l as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part() -> EdgeCutPartition {
        EdgeCutPartition::random(1000, 7, 42)
    }

    #[test]
    fn agrees_with_partition_ownership() {
        let p = part();
        let li = LocalIndex::build(&p);
        assert_eq!(li.machines(), 7);
        assert_eq!(li.num_vertices(), 1000);
        for v in 0..1000u32 {
            assert_eq!(li.machine_of(v), p.machine_of(v));
        }
    }

    #[test]
    fn fragments_match_vertices_per_machine() {
        let p = part();
        let li = LocalIndex::build(&p);
        let frags = p.vertices_per_machine();
        for (m, frag) in frags.iter().enumerate() {
            assert_eq!(li.globals_of(m), frag.as_slice(), "machine {m}");
            assert_eq!(li.num_locals(m), frag.len());
        }
        assert_eq!(li.max_locals(), frags.iter().map(Vec::len).max().unwrap());
    }

    #[test]
    fn local_ids_are_dense_ascending_and_roundtrip() {
        let p = part();
        let li = LocalIndex::build(&p);
        for m in 0..li.machines() {
            let frag = li.globals_of(m);
            assert!(frag.windows(2).all(|w| w[0] < w[1]), "machine {m} not ascending");
            for (i, &v) in frag.iter().enumerate() {
                assert_eq!(li.machine_local_of(v), (m as MachineId, i as u32));
                assert_eq!(li.global_of(m, i as u32), v);
            }
        }
    }

    #[test]
    fn single_machine_is_identity() {
        let p = EdgeCutPartition::random(64, 1, 3);
        let li = LocalIndex::build(&p);
        for v in 0..64u32 {
            assert_eq!(li.machine_local_of(v), (0, v));
        }
    }
}
