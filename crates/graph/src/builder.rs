//! Graphs from `(src, dst)` pairs, and the undirected view.

use crate::{CsrGraph, Edge, EdgeList, VertexId};

/// Convenience: build an [`EdgeList`] from `(src, dst)` pairs, inferring the
/// vertex count as `max id + 1`. Intended for tests and examples.
pub fn edge_list_from_pairs(pairs: &[(VertexId, VertexId)]) -> EdgeList {
    let n = pairs.iter().map(|&(s, d)| s.max(d) as u64 + 1).max().unwrap_or(0);
    let mut el = EdgeList::with_capacity(n, pairs.len());
    for &(s, d) in pairs {
        el.push(s, d);
    }
    el
}

/// Convenience: CSR straight from pairs (see [`edge_list_from_pairs`]).
pub fn csr_from_pairs(pairs: &[(VertexId, VertexId)]) -> CsrGraph {
    CsrGraph::from_edge_list(&edge_list_from_pairs(pairs))
}

/// Make a graph undirected by adding the reverse of every edge and removing
/// duplicates. Used by the WCC oracle and the road-network generator.
pub fn symmetrize(el: &EdgeList) -> EdgeList {
    let mut out = EdgeList::with_capacity(el.num_vertices, el.edges.len() * 2);
    for e in &el.edges {
        out.edges.push(*e);
        if !e.is_self_edge() {
            out.edges.push(Edge { src: e.dst, dst: e.src });
        }
    }
    out.sort_dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_infers_vertex_count() {
        let el = edge_list_from_pairs(&[(0, 5), (2, 1)]);
        assert_eq!(el.num_vertices, 6);
        assert_eq!(el.num_edges(), 2);
        assert_eq!(edge_list_from_pairs(&[]).num_vertices, 0);
    }

    #[test]
    fn symmetrize_adds_reverse_edges_once() {
        let el = edge_list_from_pairs(&[(0, 1), (1, 0), (1, 2), (2, 2)]);
        let sym = symmetrize(&el);
        // (0,1),(1,0),(1,2),(2,1),(2,2)
        assert_eq!(sym.num_edges(), 5);
        let has = |s, d| sym.edges.contains(&Edge::new(s, d));
        assert!(has(0, 1) && has(1, 0) && has(1, 2) && has(2, 1) && has(2, 2));
    }
}
