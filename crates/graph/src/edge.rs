//! Directed edges and edge lists.

use crate::VertexId;

/// A directed edge `src -> dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    pub src: VertexId,
    pub dst: VertexId,
}

impl Edge {
    pub fn new(src: VertexId, dst: VertexId) -> Self {
        Edge { src, dst }
    }

    /// True when the edge starts and ends at the same vertex.
    pub fn is_self_edge(&self) -> bool {
        self.src == self.dst
    }

    /// The same edge with endpoints swapped.
    pub fn reversed(&self) -> Edge {
        Edge { src: self.dst, dst: self.src }
    }
}

/// A directed graph as a flat list of edges plus a vertex count.
///
/// The vertex set is always the dense range `0..num_vertices`; vertices with
/// no incident edges are legal (the road-network generator produces a few).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeList {
    pub num_vertices: u64,
    pub edges: Vec<Edge>,
}

impl EdgeList {
    pub fn new(num_vertices: u64) -> Self {
        EdgeList { num_vertices, edges: Vec::new() }
    }

    pub fn with_capacity(num_vertices: u64, edges: usize) -> Self {
        EdgeList { num_vertices, edges: Vec::with_capacity(edges) }
    }

    pub fn num_edges(&self) -> u64 {
        self.edges.len() as u64
    }

    /// Append an edge. Panics in debug builds if an endpoint is out of range.
    pub fn push(&mut self, src: VertexId, dst: VertexId) {
        debug_assert!((src as u64) < self.num_vertices && (dst as u64) < self.num_vertices);
        self.edges.push(Edge { src, dst });
    }

    /// Sort edges by `(src, dst)` and drop exact duplicates.
    pub fn sort_dedup(&mut self) {
        self.edges.sort_unstable();
        self.edges.dedup();
    }

    /// Count self-edges without modifying the list.
    #[cfg(test)]
    pub fn count_self_edges(&self) -> u64 {
        self.edges.iter().filter(|e| e.is_self_edge()).count() as u64
    }

    /// Remove self-edges in place, returning how many were removed.
    ///
    /// GraphLab cannot represent self-edges (paper §3.1.1); its loader calls
    /// this and records the count as a correctness caveat.
    pub fn remove_self_edges(&mut self) -> u64 {
        let before = self.edges.len();
        self.edges.retain(|e| !e.is_self_edge());
        (before - self.edges.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_basics() {
        let e = Edge::new(3, 7);
        assert!(!e.is_self_edge());
        assert_eq!(e.reversed(), Edge::new(7, 3));
        assert!(Edge::new(5, 5).is_self_edge());
    }

    #[test]
    fn sort_dedup_removes_duplicates_only() {
        let mut el = EdgeList::new(4);
        el.push(1, 2);
        el.push(0, 3);
        el.push(1, 2);
        el.push(2, 2);
        el.sort_dedup();
        assert_eq!(el.edges, vec![Edge::new(0, 3), Edge::new(1, 2), Edge::new(2, 2)]);
    }

    #[test]
    fn self_edge_accounting() {
        let mut el = EdgeList::new(3);
        el.push(0, 0);
        el.push(0, 1);
        el.push(2, 2);
        assert_eq!(el.count_self_edges(), 2);
        assert_eq!(el.remove_self_edges(), 2);
        assert_eq!(el.num_edges(), 1);
        assert_eq!(el.count_self_edges(), 0);
    }
}
