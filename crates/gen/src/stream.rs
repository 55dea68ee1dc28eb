//! Chunked, deterministic, parallel generation infrastructure.
//!
//! Every generator in this crate is a loop over fixed-size *chunks*; chunk
//! `c` draws all of its randomness from `stream_rng(seed, c)`, its own stream
//! of [`graphbench_graph::rng`]. The chunk decomposition (including
//! [`CHUNK_EDGES`]) is part of each generator's output definition, so the
//! same chunks can be produced in any order on any number of threads and
//! reassembled in index order into a bit-identical result — parallel
//! generation equals sequential generation *by construction*, not by
//! verification. Whole-graph draws that are not per-chunk (id permutations,
//! component stitching, self-edge tails) use reserved stream ids with the
//! top bit set so they can never collide with a chunk stream.
//!
//! Two consumption modes:
//!
//! * [`collect_chunks`] — materialize an `EdgeList` (the legacy API);
//! * [`streamed_csr`] — two-pass CSR construction that never materializes an
//!   edge list: pass 1 streams every chunk to count degrees (optionally
//!   maintaining a union-find for component stitching), pass 2 regenerates
//!   the same chunks to fill the target array. Generation runs twice, which
//!   trades ~2× compute for O(1) edge-storage overhead — the trade that
//!   makes a 10⁸-edge graph fit alongside its own CSR in memory.

use graphbench_graph::rng::{splitmix64, Rng};
use graphbench_graph::{CsrBuilder, CsrGraph, Edge, EdgeList, VertexId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, Once};

/// Edges per chunk for the edge-stream generators (Chung-Lu, R-MAT, web).
/// This constant is part of the output definition: changing it changes the
/// chunk→stream mapping and therefore the generated graphs. It is *not*
/// tunable at runtime for exactly that reason.
pub const CHUNK_EDGES: u64 = 1 << 16;

/// Stream id for whole-graph id permutations.
pub const STREAM_PERM: u64 = 1 << 63;
/// Stream id for tail draws (component stitching, self-edge injection).
pub const STREAM_TAIL: u64 = (1 << 63) + 1;

/// The RNG for stream `stream_id` of a generator seeded with `seed`.
/// Distinct `(seed, stream_id)` pairs give independent streams; the same
/// pair always gives the same stream.
pub fn stream_rng(seed: u64, stream_id: u64) -> Rng {
    Rng::seed_from_u64(splitmix64(seed ^ splitmix64(stream_id)))
}

/// Number of [`CHUNK_EDGES`]-sized chunks covering `num_edges`.
pub fn edge_chunks(num_edges: u64) -> u64 {
    num_edges.div_ceil(CHUNK_EDGES)
}

/// Edge count of chunk `ci` out of `num_edges` total (the last chunk may be
/// short).
pub fn chunk_len(ci: u64, num_edges: u64) -> u64 {
    let start = ci * CHUNK_EDGES;
    CHUNK_EDGES.min(num_edges - start)
}

/// Fisher–Yates permutation of `0..n` drawn from the generator's
/// [`STREAM_PERM`] stream.
pub fn seeded_permutation(n: usize, seed: u64) -> Vec<VertexId> {
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    stream_rng(seed, STREAM_PERM).shuffle(&mut perm);
    perm
}

// ---------------------------------------------------------------------------
// Thread-count resolution.
//
// `crates/gen` sits below `crates/engines` (which dev-depends on it), so it
// cannot reuse `engines::exec::threads()`; it resolves the same
// `GRAPHBENCH_THREADS` contract independently: explicit override > env var >
// detected core count, bad values warn once and fall back.

static THREADS: AtomicUsize = AtomicUsize::new(0);
static WARN_BAD_THREADS: Once = Once::new();

fn detected_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn resolve_threads() -> usize {
    match std::env::var("GRAPHBENCH_THREADS") {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                WARN_BAD_THREADS.call_once(|| {
                    eprintln!(
                        "graphbench: GRAPHBENCH_THREADS={raw:?} is not a positive integer; \
                         falling back to the detected core count"
                    );
                });
                detected_threads()
            }
        },
        Err(_) => detected_threads(),
    }
}

/// Host threads the generators fan chunks across. Never affects output.
pub fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => {
            let t = resolve_threads();
            THREADS.store(t, Ordering::Relaxed);
            t
        }
        t => t,
    }
}

/// Override the generator thread count (tests; `1` forces the serial path).
pub fn set_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Ordered parallel chunk driver.

struct DriverState {
    /// Finished chunks not yet consumed, keyed by chunk index.
    ready: BTreeMap<u64, Vec<Edge>>,
    /// Next chunk index the consumer will take.
    next: u64,
    /// Reusable edge buffers (bounds the driver's allocation to the window).
    pool: Vec<Vec<Edge>>,
}

/// Generate chunks `0..num_chunks` with `gen` (possibly on several threads)
/// and hand each to `consume` **in ascending chunk order** on the calling
/// thread. Workers run at most `4 × threads` chunks ahead of the consumer,
/// so memory stays bounded no matter how uneven chunk costs are.
///
/// `gen(ci, buf)` must append chunk `ci`'s edges to `buf` (cleared already)
/// deterministically — all randomness from `stream_rng(seed, ci)`.
pub fn ordered_chunks<F, C>(num_chunks: u64, gen: F, mut consume: C)
where
    F: Fn(u64, &mut Vec<Edge>) + Sync,
    C: FnMut(u64, &[Edge]),
{
    let t = threads().min(num_chunks.max(1) as usize);
    if t <= 1 {
        let mut buf = Vec::new();
        for ci in 0..num_chunks {
            buf.clear();
            gen(ci, &mut buf);
            consume(ci, &buf);
        }
        return;
    }

    let window = 4 * t as u64;
    let state = Mutex::new(DriverState { ready: BTreeMap::new(), next: 0, pool: Vec::new() });
    let cv_ready = Condvar::new();
    let cv_space = Condvar::new();
    let claim = AtomicU64::new(0);

    std::thread::scope(|s| {
        for _ in 0..t {
            s.spawn(|| loop {
                let ci = claim.fetch_add(1, Ordering::Relaxed);
                if ci >= num_chunks {
                    return;
                }
                let mut buf = {
                    let mut st = state.lock().unwrap();
                    // Claims are handed out contiguously, so the worker
                    // holding chunk `next` never waits here: the window can
                    // always make progress.
                    while ci >= st.next + window {
                        st = cv_space.wait(st).unwrap();
                    }
                    st.pool.pop().unwrap_or_default()
                };
                buf.clear();
                gen(ci, &mut buf);
                state.lock().unwrap().ready.insert(ci, buf);
                cv_ready.notify_all();
            });
        }
        for ci in 0..num_chunks {
            let buf = {
                let mut st = state.lock().unwrap();
                loop {
                    if let Some(b) = st.ready.remove(&ci) {
                        break b;
                    }
                    st = cv_ready.wait(st).unwrap();
                }
            };
            consume(ci, &buf);
            let mut st = state.lock().unwrap();
            st.next = ci + 1;
            st.pool.push(buf);
            drop(st);
            cv_space.notify_all();
        }
    });
}

/// Materialize all chunks into an [`EdgeList`] (the legacy generator API).
pub fn collect_chunks<F>(num_vertices: u64, num_chunks: u64, capacity: usize, gen: F) -> EdgeList
where
    F: Fn(u64, &mut Vec<Edge>) + Sync,
{
    let mut el = EdgeList::with_capacity(num_vertices, capacity);
    ordered_chunks(num_chunks, gen, |_, chunk| el.edges.extend_from_slice(chunk));
    el
}

// ---------------------------------------------------------------------------
// Union-find (for streaming component stitching).

/// Union-find with path halving, identical to the one `stitch_components`
/// has always used — the streamed pass-1 union sequence must reproduce the
/// same parent structure as a sequential scan of the edge list.
pub struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    pub fn new(n: usize) -> Self {
        UnionFind { parent: (0..n as u32).collect() }
    }

    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    /// Union in edge direction: root of `a` is re-parented onto root of `b`
    /// (matching the historical `stitch_components` ordering exactly).
    pub fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra as usize] = rb;
        }
    }

    pub fn len(&self) -> usize {
        self.parent.len()
    }

    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Two-pass streamed CSR construction.

/// Build a CSR directly from a chunked generator without materializing an
/// edge list.
///
/// * Pass 1 streams every chunk through [`CsrBuilder::count`]; when
///   `track_components` is set, it also unions each edge into a
///   [`UnionFind`] (in chunk order — the same sequence a sequential edge-
///   list scan would produce).
/// * `tail(&mut uf)` then produces the whole-graph tail edges (component
///   stitches, self-edge injections; empty for most generators). They are
///   appended after all chunk edges, exactly where the legacy generators
///   put them.
/// * Pass 2 regenerates the same chunks to [`CsrBuilder::fill`] the target
///   array; chunks arrive in index order, so every vertex's adjacency order
///   matches the edge-list path bit for bit.
pub fn streamed_csr<F, T>(
    num_vertices: u64,
    num_chunks: u64,
    gen: F,
    track_components: bool,
    tail: T,
) -> CsrGraph
where
    F: Fn(u64, &mut Vec<Edge>) + Sync,
    T: FnOnce(&mut UnionFind) -> Vec<Edge>,
{
    let mut b = CsrBuilder::new(num_vertices);
    let mut uf = UnionFind::new(if track_components { num_vertices as usize } else { 0 });
    ordered_chunks(num_chunks, &gen, |_, chunk| {
        for e in chunk {
            b.count(e.src);
            if track_components {
                uf.union(e.src, e.dst);
            }
        }
    });
    let tail_edges = tail(&mut uf);
    for e in &tail_edges {
        b.count(e.src);
    }
    b.seal();
    ordered_chunks(num_chunks, &gen, |_, chunk| {
        for e in chunk {
            b.fill(e.src, e.dst);
        }
    });
    for e in &tail_edges {
        b.fill(e.src, e.dst);
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// `set_threads` mutates process globals; serialize the tests that use it.
    static THREAD_ENV: StdMutex<()> = StdMutex::new(());

    fn toy_chunk(seed: u64) -> impl Fn(u64, &mut Vec<Edge>) + Sync {
        move |ci, buf| {
            let mut rng = stream_rng(seed, ci);
            // Variable-length chunks exercise the buffer pool.
            let len = 1 + (ci % 7) as usize * 3;
            for _ in 0..len {
                buf.push(Edge::new(rng.below_u32(100), rng.below_u32(100)));
            }
        }
    }

    #[test]
    fn streams_are_independent_and_stable() {
        let a: Vec<u64> = (0..4).map(|_| stream_rng(7, 0).next_u64()).collect();
        assert!(a.iter().all(|&x| x == a[0]));
        assert_ne!(a[0], stream_rng(7, 1).next_u64());
        assert_ne!(a[0], stream_rng(8, 0).next_u64());
        // Chunk 0 of every seed-42 dataset behind `benchmark/expected/`.
        assert_eq!(stream_rng(42, 0).next_u64(), 0xde5a8312db6dcfc3);
    }

    #[test]
    fn chunk_arithmetic() {
        assert_eq!(edge_chunks(0), 0);
        assert_eq!(edge_chunks(1), 1);
        assert_eq!(edge_chunks(CHUNK_EDGES), 1);
        assert_eq!(edge_chunks(CHUNK_EDGES + 1), 2);
        assert_eq!(chunk_len(0, CHUNK_EDGES + 5), CHUNK_EDGES);
        assert_eq!(chunk_len(1, CHUNK_EDGES + 5), 5);
    }

    #[test]
    fn ordered_driver_is_thread_count_invariant() {
        let _guard = THREAD_ENV.lock().unwrap();
        let gen = toy_chunk(11);
        let run = |t: usize| {
            set_threads(t);
            let mut out: Vec<(u64, Vec<Edge>)> = Vec::new();
            ordered_chunks(57, &gen, |ci, chunk| out.push((ci, chunk.to_vec())));
            set_threads(1);
            out
        };
        let serial = run(1);
        assert_eq!(serial.len(), 57);
        assert!(serial.windows(2).all(|w| w[0].0 + 1 == w[1].0));
        for t in [2, 4, 9] {
            assert_eq!(run(t), serial, "threads = {t}");
        }
    }

    #[test]
    fn collect_matches_manual_loop() {
        let _guard = THREAD_ENV.lock().unwrap();
        set_threads(3);
        let gen = toy_chunk(5);
        let el = collect_chunks(100, 20, 0, &gen);
        set_threads(1);
        let mut want = Vec::new();
        let mut buf = Vec::new();
        for ci in 0..20 {
            buf.clear();
            gen(ci, &mut buf);
            want.extend_from_slice(&buf);
        }
        assert_eq!(el.edges, want);
        assert_eq!(el.num_vertices, 100);
    }

    #[test]
    fn streamed_csr_matches_edge_list_build() {
        let _guard = THREAD_ENV.lock().unwrap();
        set_threads(4);
        let gen = toy_chunk(13);
        let el = collect_chunks(100, 30, 0, &gen);
        let from_list = CsrGraph::from_edge_list(&el);
        let streamed = streamed_csr(100, 30, &gen, false, |_| Vec::new());
        set_threads(1);
        assert_eq!(streamed, from_list);
    }

    #[test]
    fn streamed_tail_edges_append_after_chunks() {
        let gen = |_ci: u64, buf: &mut Vec<Edge>| {
            buf.push(Edge::new(0, 1));
            buf.push(Edge::new(0, 2));
        };
        let g = streamed_csr(4, 1, gen, false, |_| vec![Edge::new(0, 3)]);
        assert_eq!(g.out_neighbors(0), &[1, 2, 3]);
    }

    #[test]
    fn union_find_matches_sequential_components() {
        let mut uf = UnionFind::new(6);
        for (a, b) in [(0u32, 1u32), (1, 2), (4, 5)] {
            uf.union(a, b);
        }
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(3));
        assert_eq!(uf.find(4), uf.find(5));
    }
}
