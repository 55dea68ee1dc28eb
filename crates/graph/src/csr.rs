//! Compressed-sparse-row graph representation.

use crate::disk::MapRegion;
use crate::format::GraphFormat;
use crate::{EdgeList, VertexId};
use std::sync::{Arc, OnceLock};

/// One CSR array: either owned in memory or a window of a read-only mmap
/// (see [`crate::disk`]). Mapped segments share the region through an `Arc`,
/// so cloning a mapped graph never copies the arrays.
#[derive(Clone)]
pub(crate) enum Seg<T: Copy> {
    Owned(Vec<T>),
    Mapped {
        region: Arc<MapRegion>,
        /// Byte offset into the region; must be a multiple of
        /// `align_of::<T>()` (the disk layout aligns every section to 8).
        byte_offset: usize,
        len: usize,
    },
}

impl<T: Copy> Seg<T> {
    pub(crate) fn as_slice(&self) -> &[T] {
        match self {
            Seg::Owned(v) => v.as_slice(),
            Seg::Mapped { region, byte_offset, len } => {
                let bytes = region.bytes();
                debug_assert!(byte_offset + len * std::mem::size_of::<T>() <= bytes.len());
                debug_assert_eq!(byte_offset % std::mem::align_of::<T>(), 0);
                // Safety: the region is immutable for its lifetime, the window
                // is in bounds and aligned (checked above and at load time),
                // and T is a plain integer type for every instantiation here.
                unsafe {
                    std::slice::from_raw_parts(bytes.as_ptr().add(*byte_offset) as *const T, *len)
                }
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            Seg::Owned(v) => v.len(),
            Seg::Mapped { len, .. } => *len,
        }
    }

    fn is_mapped(&self) -> bool {
        matches!(self, Seg::Mapped { .. })
    }
}

/// The out-offset array, stored at the narrowest width that can address
/// every edge: u32 when `num_edges <= u32::MAX`, u64 otherwise. At the
/// paper-relative scales this halves the offset footprint for every dataset.
#[derive(Clone)]
pub(crate) enum Offsets {
    U32(Seg<u32>),
    U64(Seg<u64>),
}

impl Offsets {
    #[inline]
    fn get(&self, i: usize) -> u64 {
        match self {
            Offsets::U32(s) => s.as_slice()[i] as u64,
            Offsets::U64(s) => s.as_slice()[i],
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Offsets::U32(s) => s.len(),
            Offsets::U64(s) => s.len(),
        }
    }

    /// Bytes per entry in this layout (4 or 8).
    pub(crate) fn width(&self) -> u64 {
        match self {
            Offsets::U32(_) => 4,
            Offsets::U64(_) => 8,
        }
    }

    fn is_mapped(&self) -> bool {
        match self {
            Offsets::U32(s) => s.is_mapped(),
            Offsets::U64(s) => s.is_mapped(),
        }
    }

    fn eq_values(&self, other: &Offsets) -> bool {
        match (self, other) {
            (Offsets::U32(a), Offsets::U32(b)) => a.as_slice() == b.as_slice(),
            (Offsets::U64(a), Offsets::U64(b)) => a.as_slice() == b.as_slice(),
            _ => {
                let (a, b) = (self, other);
                a.len() == b.len() && (0..a.len()).all(|i| a.get(i) == b.get(i))
            }
        }
    }

    fn from_u64(offsets: Vec<u64>) -> Offsets {
        let num_edges = offsets.last().copied().unwrap_or(0);
        if num_edges <= u32::MAX as u64 {
            Offsets::U32(Seg::Owned(offsets.into_iter().map(|o| o as u32).collect()))
        } else {
            Offsets::U64(Seg::Owned(offsets))
        }
    }
}

/// A directed graph in CSR form, with a reverse (in-edge) index and the
/// dataset's text sizes built on first use.
///
/// ```
/// use graphbench_graph::builder::csr_from_pairs;
///
/// let g = csr_from_pairs(&[(0, 1), (0, 2), (1, 2)]);
/// assert_eq!(g.out_neighbors(0), &[1, 2]);
/// assert_eq!(g.in_neighbors(2), &[0, 1]);
/// ```
///
/// Every engine operates on `CsrGraph` or on per-machine fragments derived
/// from it. The out-adjacency is the graph; the reverse index and the text
/// sizes are host caches, functions of the out-adjacency that are built
/// once, the first time an accessor needs them, and shared by every run
/// that borrows the graph. They are never charged: [`CsrGraph::raw_bytes`]
/// counts the out-CSR only, equality ignores them, and the memory a system
/// spends on in-edges stays in that engine's own charges (GraphLab exposes
/// both edge directions natively, while Giraph/Blogel discover
/// in-neighbours with an extra superstep — the memory difference matters
/// to the simulation).
///
/// Storage is compact: offsets narrow to u32 whenever the edge count allows
/// it, and graphs loaded from the on-disk cache ([`crate::disk`]) keep their
/// arrays in a shared read-only mmap — equality and every accessor behave
/// identically for owned and mapped graphs.
#[derive(Clone)]
pub struct CsrGraph {
    num_vertices: usize,
    out_offsets: Offsets,
    out_targets: Seg<VertexId>,
    in_index: OnceLock<InIndex>,
    /// Encoded bytes in each [`GraphFormat`], indexed by [`text_slot`].
    text_bytes: OnceLock<[u64; 3]>,
}

/// The reverse index: `v`'s in-neighbours, ascending by source, a source
/// repeated once per parallel edge (what [`CsrGraph::transpose`] builds),
/// with offsets as narrow as the out-CSR's.
#[derive(Clone)]
pub struct InIndex {
    offsets: Offsets,
    sources: Vec<VertexId>,
}

impl InIndex {
    fn build(g: &CsrGraph) -> InIndex {
        let (offsets, sources) = g.transpose();
        InIndex { offsets: Offsets::from_u64(offsets), sources }
    }

    /// In-neighbours of `v`, ascending.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let s = self.offsets.get(v as usize) as usize;
        let e = self.offsets.get(v as usize + 1) as usize;
        &self.sources[s..e]
    }

    /// In-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u64 {
        self.offsets.get(v as usize + 1) - self.offsets.get(v as usize)
    }
}

/// The slot of `format` in [`CsrGraph`]'s memoised text sizes.
fn text_slot(format: GraphFormat) -> usize {
    match format {
        GraphFormat::Adj => 0,
        GraphFormat::AdjLong => 1,
        GraphFormat::EdgeListFormat => 2,
    }
}

/// Decimal digits of `x` as text.
fn digits(x: u64) -> u64 {
    x.checked_ilog10().map_or(1, |l| u64::from(l) + 1)
}

impl std::fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsrGraph")
            .field("num_vertices", &self.num_vertices)
            .field("num_edges", &self.num_edges())
            .field("offset_width", &self.out_offsets.width())
            .field("mapped", &self.is_mapped())
            .field("has_in_edges", &self.has_in_edges())
            .finish()
    }
}

impl PartialEq for CsrGraph {
    /// Logical equality: same vertex count, offsets, and adjacency —
    /// independent of offset width, of owned-vs-mapped backing and of which
    /// caches were built, so a cache-loaded graph compares equal to a
    /// freshly generated one.
    fn eq(&self, other: &Self) -> bool {
        self.num_vertices == other.num_vertices
            && self.out_offsets.eq_values(&other.out_offsets)
            && self.out_targets.as_slice() == other.out_targets.as_slice()
    }
}

impl Eq for CsrGraph {}

impl CsrGraph {
    /// Build the out-CSR from an edge list. Edge order within a vertex's
    /// adjacency follows the input order; duplicates are preserved.
    pub fn from_edge_list(el: &EdgeList) -> Self {
        let mut b = CsrBuilder::new(el.num_vertices);
        for e in &el.edges {
            b.count(e.src);
        }
        b.seal();
        for e in &el.edges {
            b.fill(e.src, e.dst);
        }
        b.finish()
    }

    /// Assemble from prebuilt arrays (the disk loader's owned fallback).
    /// `offsets` must be monotone with `offsets[0] == 0` and
    /// `offsets[n] == targets.len()`.
    pub fn from_raw(num_vertices: usize, offsets: Vec<u64>, targets: Vec<VertexId>) -> Self {
        assert_eq!(offsets.len(), num_vertices + 1, "offset array length");
        assert_eq!(offsets.last().copied().unwrap_or(0), targets.len() as u64, "edge count");
        CsrGraph::from_parts(num_vertices, Offsets::from_u64(offsets), Seg::Owned(targets))
    }

    pub(crate) fn from_parts(
        num_vertices: usize,
        out_offsets: Offsets,
        out_targets: Seg<VertexId>,
    ) -> Self {
        CsrGraph {
            num_vertices,
            out_offsets,
            out_targets,
            in_index: OnceLock::new(),
            text_bytes: OnceLock::new(),
        }
    }

    pub(crate) fn out_parts(&self) -> (&Offsets, &[VertexId]) {
        (&self.out_offsets, self.out_targets.as_slice())
    }

    /// Number of vertices (the dense range `0..n`).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> u64 {
        self.out_targets.len() as u64
    }

    /// Out-neighbours of `v` in input order.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let s = self.out_offsets.get(v as usize) as usize;
        let e = self.out_offsets.get(v as usize + 1) as usize;
        &self.out_targets.as_slice()[s..e]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u64 {
        self.out_offsets.get(v as usize + 1) - self.out_offsets.get(v as usize)
    }

    /// True when the arrays live in a read-only mmap (loaded from the
    /// dataset cache) rather than owned heap memory.
    pub fn is_mapped(&self) -> bool {
        self.out_offsets.is_mapped() || self.out_targets.is_mapped()
    }

    /// Bytes per offset entry in the current layout (4 or 8).
    pub fn offset_width(&self) -> u64 {
        self.out_offsets.width()
    }

    /// True once the reverse index is built.
    pub fn has_in_edges(&self) -> bool {
        self.in_index.get().is_some()
    }

    /// Build the reverse (in-edge) index now rather than on first use.
    /// Idempotent.
    pub fn build_in_edges(&mut self) {
        self.in_index();
    }

    /// The reverse index, built on first use and kept as long as the graph.
    /// Concurrent first uses build it once.
    pub fn in_index(&self) -> &InIndex {
        self.in_index.get_or_init(|| InIndex::build(self))
    }

    /// The reverse index as `(offsets, sources)`, one counting sort: `v`'s
    /// in-neighbours are `sources[offsets[v]..offsets[v + 1]]`, ascending,
    /// a source repeated once per parallel edge.
    pub fn transpose(&self) -> (Vec<u64>, Vec<VertexId>) {
        let n = self.num_vertices;
        let targets_in = self.out_targets.as_slice();
        let mut offsets = vec![0u64; n + 1];
        for &t in targets_in {
            offsets[t as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor: Vec<u64> = offsets[..n].to_vec();
        let mut sources = vec![0 as VertexId; targets_in.len()];
        for v in 0..n as VertexId {
            for &t in self.out_neighbors(v) {
                let c = &mut cursor[t as usize];
                sources[*c as usize] = v;
                *c += 1;
            }
        }
        (offsets, sources)
    }

    /// In-neighbours of `v`, ascending (see [`CsrGraph::in_index`]).
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.in_index().neighbors(v)
    }

    /// In-degree of `v` (see [`CsrGraph::in_index`]).
    pub fn in_degree(&self, v: VertexId) -> u64 {
        self.in_index().degree(v)
    }

    /// Bytes of the dataset as text in `format` (§4.3: Hadoop/HaLoop,
    /// Giraph and GraphLab read `adj`, Blogel `adj-long`, GraphX/Gelly
    /// `edge`), what [`crate::format::encoded_size`] writes out for the
    /// edge list this graph was built from, without materializing the text.
    /// All three are counted in one pass over the out-CSR on first use.
    pub fn text_bytes(&self, format: GraphFormat) -> u64 {
        self.text_bytes.get_or_init(|| self.count_text_bytes())[text_slot(format)]
    }

    /// `adj` lists each vertex with out-edges, `adj-long` every vertex with
    /// its degree, `edge` each edge with its source: every format spends
    /// one separator plus the digits per target.
    fn count_text_bytes(&self) -> [u64; 3] {
        let mut sizes = [0u64; 3];
        let mut targets = 0u64;
        for v in 0..self.num_vertices as VertexId {
            let (d, line) = (self.out_degree(v), digits(u64::from(v)) + 1);
            if d > 0 {
                sizes[text_slot(GraphFormat::Adj)] += line;
            }
            sizes[text_slot(GraphFormat::AdjLong)] += line + digits(d) + 1;
            sizes[text_slot(GraphFormat::EdgeListFormat)] += d * line;
            targets += self.out_neighbors(v).iter().map(|&t| digits(u64::from(t)) + 1).sum::<u64>();
        }
        sizes.map(|s| s + targets)
    }

    /// Iterate all edges as `(src, dst)` pairs in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices as VertexId)
            .flat_map(move |v| self.out_neighbors(v).iter().map(move |&t| (v, t)))
    }

    /// Bytes of the out-CSR arrays in their *actual* layout (the "C++
    /// compact" memory baseline the simulator scales per-system): the real
    /// offset width (4 or 8 per entry) times the offset count, plus 4 bytes
    /// per target. The host caches are not counted, so the figure does not
    /// depend on which runs used the graph before.
    pub fn raw_bytes(&self) -> u64 {
        self.out_offsets.len() as u64 * self.out_offsets.width() + self.out_targets.len() as u64 * 4
    }
}

/// Two-pass streaming CSR constructor: callers stream every edge once to
/// [`CsrBuilder::count`], [`CsrBuilder::seal`] the degree table, stream the
/// same edges again to [`CsrBuilder::fill`], and [`CsrBuilder::finish`].
///
/// Nothing but the final arrays (plus a transient cursor table) is ever
/// allocated, so a deterministic generator can build a 10⁸-edge CSR without
/// materializing an 800 MB edge list — it regenerates its chunks for the
/// second pass instead. The fill pass must present edges in the same order
/// per source vertex as the count pass for adjacency order to be defined,
/// which re-running a deterministic generator guarantees.
pub struct CsrBuilder {
    num_vertices: usize,
    degrees: Vec<u64>,
    fill: Option<FillState>,
}

struct FillState {
    offsets: Vec<u64>,
    cursor: Vec<u64>,
    targets: Vec<VertexId>,
}

impl CsrBuilder {
    pub fn new(num_vertices: u64) -> Self {
        let n = num_vertices as usize;
        CsrBuilder { num_vertices: n, degrees: vec![0u64; n], fill: None }
    }

    /// Pass 1: record one edge leaving `src`.
    #[inline]
    pub fn count(&mut self, src: VertexId) {
        debug_assert!(self.fill.is_none(), "count after seal");
        self.degrees[src as usize] += 1;
    }

    /// Close pass 1: convert degrees to offsets and allocate the target
    /// array. Panics if called twice.
    pub fn seal(&mut self) {
        assert!(self.fill.is_none(), "seal called twice");
        let n = self.num_vertices;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u64;
        offsets.push(0);
        for d in &self.degrees {
            acc += d;
            offsets.push(acc);
        }
        self.degrees = Vec::new();
        let cursor = offsets[..n].to_vec();
        let targets = vec![0 as VertexId; acc as usize];
        self.fill = Some(FillState { offsets, cursor, targets });
    }

    /// Pass 2: place one edge. Edges may arrive in any global order, but the
    /// relative order of a single vertex's edges defines its adjacency order.
    #[inline]
    pub fn fill(&mut self, src: VertexId, dst: VertexId) {
        let f = self.fill.as_mut().expect("fill before seal");
        let c = &mut f.cursor[src as usize];
        f.targets[*c as usize] = dst;
        *c += 1;
    }

    /// Finish, asserting pass 2 supplied exactly the counted edges.
    pub fn finish(self) -> CsrGraph {
        let f = self.fill.expect("finish before seal");
        for (v, (&c, w)) in f.cursor.iter().zip(f.offsets[1..].iter()).enumerate() {
            assert_eq!(c, *w, "vertex {v}: fill pass disagrees with count pass");
        }
        CsrGraph::from_parts(self.num_vertices, Offsets::from_u64(f.offsets), Seg::Owned(f.targets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeList;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut el = EdgeList::new(4);
        el.push(0, 1);
        el.push(0, 2);
        el.push(1, 3);
        el.push(2, 3);
        CsrGraph::from_edge_list(&el)
    }

    #[test]
    fn out_adjacency() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.out_neighbors(3), &[] as &[VertexId]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
    }

    #[test]
    fn in_adjacency() {
        let mut g = diamond();
        assert!(!g.has_in_edges());
        g.build_in_edges();
        assert!(g.has_in_edges());
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.in_neighbors(0), &[] as &[VertexId]);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.in_index().offsets.width(), 4, "as narrow as the out-CSR's offsets");
        // Idempotent.
        g.build_in_edges();
        assert_eq!(g.in_degree(3), 2);
    }

    #[test]
    fn edges_iterator_matches_input() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn isolated_vertices_are_legal() {
        let mut el = EdgeList::new(5);
        el.push(0, 4);
        let g = CsrGraph::from_edge_list(&el);
        assert_eq!(g.num_vertices(), 5);
        for v in 1..4 {
            assert_eq!(g.out_degree(v), 0);
        }
    }

    #[test]
    fn raw_bytes_ignore_the_built_caches() {
        let g = diamond();
        let out_only = g.raw_bytes();
        g.in_index();
        g.text_bytes(GraphFormat::Adj);
        assert!(g.has_in_edges());
        assert_eq!(g.raw_bytes(), out_only);
        assert_eq!(g, diamond());
    }

    #[test]
    fn in_index_built_from_two_threads_is_the_transpose() {
        let mut el = EdgeList::new(300);
        let mut rng = crate::rng::Rng::seed_from_u64(5);
        for _ in 0..3_000 {
            el.push(rng.below_u32(300), rng.below_u32(300));
        }
        let g = CsrGraph::from_edge_list(&el);
        let (offsets, sources) = g.transpose();
        let start = std::sync::Barrier::new(2);
        let built: Vec<&InIndex> = std::thread::scope(|s| {
            let first_use = || {
                start.wait();
                g.in_index()
            };
            let threads: Vec<_> = (0..2).map(|_| s.spawn(first_use)).collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert!(std::ptr::eq(built[0], built[1]), "both threads read one index");
        for v in 0..300 {
            let (s, e) = (offsets[v] as usize, offsets[v + 1] as usize);
            assert_eq!(g.in_neighbors(v as VertexId), &sources[s..e]);
        }
    }

    #[test]
    fn text_bytes_match_the_real_encoding() {
        // A self-loop, a parallel edge, isolated vertices, and
        // `num_vertices` above the largest id.
        let pairs = [(0, 1), (0, 25), (12, 3), (999, 0), (7, 7), (0, 25)];
        let mut el = crate::builder::edge_list_from_pairs(&pairs);
        el.num_vertices = 1_000;
        let mut wide = el.clone();
        wide.num_vertices = 12_345;
        for el in [el, wide] {
            let g = CsrGraph::from_edge_list(&el);
            for fmt in [GraphFormat::Adj, GraphFormat::AdjLong, GraphFormat::EdgeListFormat] {
                let want = crate::format::encoded_size(&el, fmt);
                assert_eq!(g.text_bytes(fmt), want, "{} at n = {}", fmt.name(), el.num_vertices);
            }
        }
    }

    #[test]
    fn digits_match_the_decimal_text() {
        let mut xs = vec![0, u64::MAX];
        for e in 0..=19 {
            let p = 10u64.pow(e);
            xs.extend([p, p - 1]);
        }
        for x in xs {
            assert_eq!(digits(x), x.to_string().len() as u64, "{x}");
        }
    }

    #[test]
    fn raw_bytes_reports_the_actual_offset_width() {
        // 4 edges < u32::MAX: offsets are u32, 4 bytes each.
        let g = diamond();
        assert_eq!(g.offset_width(), 4);
        assert_eq!(g.raw_bytes(), 5 * 4 + 4 * 4);
        assert!(!g.is_mapped());
    }

    #[test]
    fn builder_matches_from_edge_list() {
        let mut el = EdgeList::new(6);
        for &(s, d) in &[(0, 3), (2, 1), (0, 0), (5, 2), (2, 4), (0, 1)] {
            el.push(s, d);
        }
        let reference = CsrGraph::from_edge_list(&el);
        let mut b = CsrBuilder::new(6);
        for e in &el.edges {
            b.count(e.src);
        }
        b.seal();
        for e in &el.edges {
            b.fill(e.src, e.dst);
        }
        assert_eq!(b.finish(), reference);
    }

    #[test]
    #[should_panic(expected = "fill pass disagrees")]
    fn builder_detects_missing_fill_edges() {
        let mut b = CsrBuilder::new(2);
        b.count(0);
        b.seal();
        b.finish();
    }

    #[test]
    fn from_raw_round_trip() {
        let g = diamond();
        let rebuilt = CsrGraph::from_raw(4, vec![0, 2, 3, 4, 4], vec![1, 2, 3, 3]);
        assert_eq!(rebuilt, g);
        assert_eq!(rebuilt.offset_width(), 4);
    }

    #[test]
    fn equality_is_layout_independent() {
        let g = diamond();
        // Force a u64-offset twin via from_parts.
        let (offsets, targets) = {
            let (o, t) = g.out_parts();
            ((0..o.len()).map(|i| o.get(i)).collect::<Vec<u64>>(), t.to_vec())
        };
        let wide = CsrGraph::from_parts(4, Offsets::U64(Seg::Owned(offsets)), Seg::Owned(targets));
        assert_eq!(wide.offset_width(), 8);
        assert_eq!(wide, g);
        assert!(wide.raw_bytes() > g.raw_bytes());
    }
}
