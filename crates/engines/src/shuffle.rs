//! Zero-sort radix message shuffle.
//!
//! Grouping a superstep's messages by target vertex is structurally a
//! counting problem, so nothing here comparison-sorts or binary-searches:
//! the path is radix-bucketed and addressed by *fragment-local dense vertex
//! ids* (see `graphbench_partition::LocalIndex`):
//!
//! * **sender-side combining** folds each outbox bucket through a dense
//!   per-local-target slot array ([`Combiner`]) — epoch tags mark which
//!   slots are live, so nothing is sorted and nothing is cleared between
//!   buckets;
//! * **delivery** ([`Inbox`]) groups each machine's incoming messages by
//!   local id with a two-pass counting pass (count, prefix-sum, place) and
//!   records a per-local `(start, len)` offset table, giving O(1)
//!   per-vertex slicing in the next compute phase — no sort, no binary
//!   search;
//! * **all buffers are pooled**: slot arrays, offset tables, and item
//!   vectors are allocated once and reused across supersteps ([`Inbox::grows`]
//!   and [`Combiner::grows`] count reallocations so tests can assert the
//!   steady state allocates nothing).
//!
//! The invariant everything downstream rests on is *arrival order*: each
//! target's messages are grouped (or folded, for combiners) in the order
//! they arrived — sender chunks in index order, source machines in machine
//! order — which is exactly what a stable sort by target would yield. f64
//! combiners therefore fold bit-identically at any thread count and chunk
//! size, and per-vertex inbox contents, message counts, bytes, journal
//! events and registry values never depend on host scheduling.

use crate::exec;
use graphbench_graph::VertexId;

/// Chunk-parallel scatter of an ordered item sequence into per-destination
/// buckets — the radix shuffle's sender side.
///
/// The input splits into fixed-size index spans ([`exec::uniform_spans`]);
/// each chunk routes its span into *chunk-local* buckets, and the merge
/// appends those buckets to `out` in ascending chunk order. Within a chunk
/// items keep index order, so each destination's bucket is exactly the
/// subsequence a serial `for (i, x) in items { out[route(i, x)].push(..) }`
/// loop would produce — bit-identical at any `GRAPHBENCH_THREADS ×
/// GRAPHBENCH_CHUNK`, which keeps every downstream arrival-order combiner
/// fold (f64 included) and byte/message metric unchanged.
///
/// `route` maps `(index, &item)` to `(bucket, routed item)`; it must be
/// pure. Buckets are appended to, not cleared — callers pass fresh or
/// pre-cleared `out` vectors.
pub fn par_scatter<T, U, F>(items: &[T], num_buckets: usize, route: F, out: &mut [Vec<U>])
where
    T: Sync,
    U: Copy + Send,
    F: Fn(usize, &T) -> (usize, U) + Sync,
{
    assert!(out.len() >= num_buckets, "out has {} buckets, need {num_buckets}", out.len());
    let spans = exec::uniform_spans(items.len(), exec::chunk_size());
    if spans.len() <= 1 {
        // One chunk: route straight into the shared buckets.
        for (i, x) in items.iter().enumerate() {
            let (dst, u) = route(i, x);
            out[dst].push(u);
        }
        return;
    }
    let mut tasks: Vec<((usize, usize), Vec<Vec<U>>)> =
        spans.into_iter().map(|sp| (sp, (0..num_buckets).map(|_| Vec::new()).collect())).collect();
    exec::run_chunks(&mut tasks, |_, t| {
        let ((s, e), ref mut buckets) = *t;
        for i in s..e {
            let (dst, u) = route(i, &items[i]);
            buckets[dst].push(u);
        }
    });
    for (_, buckets) in &tasks {
        for (dst, b) in buckets.iter().enumerate() {
            out[dst].extend_from_slice(b);
        }
    }
}

/// Epoch-tagged dense combiner slots, one per fragment-local target id.
///
/// `combine_bucket` folds an outbox bucket per target without sorting:
/// a slot whose tag equals the current epoch is live, anything else is
/// free — bumping the epoch retires every slot at once, so buckets for
/// different destination machines can share one scratch array with no
/// clearing in between.
#[derive(Debug)]
pub struct Combiner<M> {
    stamp: Vec<u32>,
    val: Vec<M>,
    /// (global id, local id) per first touch, in touch order.
    touched: Vec<(VertexId, u32)>,
    epoch: u32,
    grows: u64,
}

impl<M: Copy> Combiner<M> {
    /// Scratch sized for fragments of up to `max_locals` vertices (it
    /// grows on demand if a larger fragment shows up, counted by
    /// [`Combiner::grows`]).
    pub fn with_capacity(max_locals: usize) -> Combiner<M> {
        Combiner {
            stamp: vec![0; max_locals],
            val: Vec::new(),
            touched: Vec::new(),
            epoch: 0,
            grows: 0,
        }
    }

    fn next_epoch(&mut self, n_locals: usize) {
        if self.stamp.len() < n_locals {
            self.grows += 1;
            self.stamp.resize(n_locals, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Combine `buf`'s messages per target, in place and without sorting.
    /// Each target's messages fold left-to-right in arrival order — the
    /// value a stable sort by target followed by an adjacent fold would
    /// produce — and the surviving entries come out in first-touch order
    /// (which downstream consumers never observe: only counts and
    /// per-target values matter).
    pub fn combine_bucket(
        &mut self,
        n_locals: usize,
        local_of: impl Fn(VertexId) -> u32,
        buf: &mut Vec<(VertexId, M)>,
        mut combine: impl FnMut(M, M) -> M,
    ) {
        if buf.len() <= 1 {
            return;
        }
        self.next_epoch(n_locals);
        if self.val.len() < self.stamp.len() {
            self.grows += 1;
            let fill = buf[0].1;
            self.val.resize(self.stamp.len(), fill);
        }
        let touched_cap = self.touched.capacity();
        self.touched.clear();
        for &(t, m) in buf.iter() {
            let l = local_of(t) as usize;
            if self.stamp[l] != self.epoch {
                self.stamp[l] = self.epoch;
                self.val[l] = m;
                self.touched.push((t, l as u32));
            } else {
                self.val[l] = combine(self.val[l], m);
            }
        }
        buf.clear();
        for &(t, l) in &self.touched {
            buf.push((t, self.val[l as usize]));
        }
        if self.touched.capacity() > touched_cap {
            self.grows += 1;
        }
    }

    /// Number of internal buffer growths since construction. Constant
    /// traffic must stop growing this after the first superstep.
    pub fn grows(&self) -> u64 {
        self.grows
    }
}

/// One machine's inbox.
///
/// Messages are grouped by fragment-local id via two-pass counting (or a
/// single combining pass) and `msgs_of` is one offset-table read.
#[derive(Debug, Clone)]
pub struct Inbox<M> {
    /// Messages for this machine, grouped by local id.
    items: Vec<(VertexId, M)>,
    // Tables over this machine's fragment-local ids. A local id's table
    // entries are valid iff its stamp equals the current epoch.
    stamp: Vec<u32>,
    start: Vec<u32>,
    count: Vec<u32>,
    cursor: Vec<u32>,
    /// (global id, local id) per first touch, in touch order.
    touched: Vec<(VertexId, u32)>,
    /// Combining-delivery value slots (lazily sized — `M` has no default).
    val: Vec<M>,
    epoch: u32,
    grows: u64,
}

impl<M: Copy> Inbox<M> {
    /// Inbox for a machine owning `n_locals` vertices.
    pub fn new(n_locals: usize) -> Inbox<M> {
        Inbox {
            items: Vec::new(),
            stamp: vec![0; n_locals],
            start: vec![0; n_locals],
            count: vec![0; n_locals],
            cursor: vec![0; n_locals],
            touched: Vec::new(),
            val: Vec::new(),
            epoch: 0,
            grows: 0,
        }
    }

    /// Number of delivered messages (post-combining).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of internal buffer growths since construction. Constant
    /// traffic must stop growing this after the first delivery.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Messages addressed to the vertex with fragment-local id `l`: one
    /// offset-table read.
    pub fn msgs_of(&self, l: u32) -> &[(VertexId, M)] {
        let l = l as usize;
        if self.stamp[l] != self.epoch {
            return &[];
        }
        let s = self.start[l] as usize;
        &self.items[s..s + self.count[l] as usize]
    }

    /// Replace this inbox's contents with the messages in `sources`
    /// (scanned in order — source order is the inter-machine arrival
    /// order). With `combinable`, each target keeps a single message:
    /// its arrivals folded left-to-right through `combine`.
    pub fn deliver<'a, S>(
        &mut self,
        sources: S,
        local_of: impl Fn(VertexId) -> u32,
        combinable: bool,
        combine: impl FnMut(M, M) -> M,
    ) where
        S: Iterator<Item = &'a [(VertexId, M)]> + Clone,
        M: 'a,
    {
        if combinable {
            self.deliver_combined(sources, local_of, combine)
        } else {
            self.deliver_counted(sources, local_of)
        }
    }

    /// Combining delivery: one pass folds every message into its target's
    /// epoch-tagged slot; the emit loop then lays targets out in
    /// first-touch order, one entry each.
    fn deliver_combined<'a, S>(
        &mut self,
        sources: S,
        local_of: impl Fn(VertexId) -> u32,
        mut combine: impl FnMut(M, M) -> M,
    ) where
        S: Iterator<Item = &'a [(VertexId, M)]>,
        M: 'a,
    {
        self.next_epoch();
        let touched_cap = self.touched.capacity();
        let items_cap = self.items.capacity();
        self.touched.clear();
        let mut val_ready = !self.val.is_empty();
        for src in sources {
            for &(t, m) in src {
                if !val_ready {
                    // First message ever: give the value slots a fill.
                    self.grows += 1;
                    self.val.resize(self.stamp.len(), m);
                    val_ready = true;
                }
                let l = local_of(t) as usize;
                if self.stamp[l] != self.epoch {
                    self.stamp[l] = self.epoch;
                    self.val[l] = m;
                    self.touched.push((t, l as u32));
                } else {
                    self.val[l] = combine(self.val[l], m);
                }
            }
        }
        self.items.clear();
        for (i, &(t, l)) in self.touched.iter().enumerate() {
            self.start[l as usize] = i as u32;
            self.count[l as usize] = 1;
            self.items.push((t, self.val[l as usize]));
        }
        if self.touched.capacity() > touched_cap || self.items.capacity() > items_cap {
            self.grows += 1;
        }
    }

    /// Non-combining delivery by two-pass counting: count messages per
    /// local target (first pass), prefix-sum the counts of touched targets
    /// into starting offsets, then place each message at its group's
    /// cursor (second pass). O(messages + touched targets); groups sit in
    /// first-touch order and each group keeps arrival order.
    fn deliver_counted<'a, S>(&mut self, sources: S, local_of: impl Fn(VertexId) -> u32)
    where
        S: Iterator<Item = &'a [(VertexId, M)]> + Clone,
        M: 'a,
    {
        self.next_epoch();
        let touched_cap = self.touched.capacity();
        let items_cap = self.items.capacity();
        self.touched.clear();
        let mut total = 0usize;
        let mut filler: Option<(VertexId, M)> = None;
        for src in sources.clone() {
            for &(t, m) in src {
                if filler.is_none() {
                    filler = Some((t, m));
                }
                let l = local_of(t) as usize;
                if self.stamp[l] != self.epoch {
                    self.stamp[l] = self.epoch;
                    self.count[l] = 1;
                    self.touched.push((t, l as u32));
                } else {
                    self.count[l] += 1;
                }
                total += 1;
            }
        }
        self.items.clear();
        let Some(filler) = filler else { return };
        let mut at = 0u32;
        for &(_, l) in &self.touched {
            let l = l as usize;
            self.start[l] = at;
            self.cursor[l] = at;
            at += self.count[l];
        }
        // Every slot is overwritten by the placement pass; the filler only
        // satisfies the type (no Default bound on M).
        self.items.resize(total, filler);
        for src in sources {
            for &(t, m) in src {
                let l = local_of(t) as usize;
                let slot = self.cursor[l] as usize;
                self.cursor[l] += 1;
                self.items[slot] = (t, m);
            }
        }
        if self.touched.capacity() > touched_cap || self.items.capacity() > items_cap {
            self.grows += 1;
        }
    }

    fn next_epoch(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// An order-sensitive, non-commutative fold: catches any deviation
    /// from arrival-order combining.
    fn fold(a: u64, b: u64) -> u64 {
        a.wrapping_mul(31).wrapping_add(b)
    }

    /// Group a message list by target with a stable sort — the reference
    /// the radix structures must match per target.
    fn reference_groups(msgs: &[(VertexId, u64)]) -> Vec<Vec<(VertexId, u64)>> {
        let n = msgs.iter().map(|&(t, _)| t as usize + 1).max().unwrap_or(0);
        let mut groups = vec![Vec::new(); n];
        for &(t, m) in msgs {
            groups[t as usize].push((t, m));
        }
        groups
    }

    /// The combining oracle: stable-sort by target, then fold adjacent equal
    /// targets left-to-right. Stability means each target's messages are folded
    /// in arrival order — the fold the radix structures must reproduce.
    fn sort_combine_in_place<M: Copy>(
        buf: &mut Vec<(VertexId, M)>,
        mut combine: impl FnMut(M, M) -> M,
    ) {
        if buf.len() <= 1 {
            return;
        }
        buf.sort_by_key(|&(t, _)| t);
        let mut w = 0usize;
        for i in 0..buf.len() {
            if w > 0 && buf[w - 1].0 == buf[i].0 {
                buf[w - 1].1 = combine(buf[w - 1].1, buf[i].1);
            } else {
                buf[w] = buf[i];
                w += 1;
            }
        }
        buf.truncate(w);
    }

    proptest! {
        /// `Combiner::combine_bucket` and the stable-sort oracle agree on
        /// the combined value of every target.
        #[test]
        fn combiner_matches_sorting_combine(
            msgs in prop::collection::vec((0u32..40, 0u64..1_000_000), 0..200),
        ) {
            let mut sorted = msgs.clone();
            sort_combine_in_place(&mut sorted, fold);
            let mut radix = msgs.clone();
            let mut comb: Combiner<u64> = Combiner::with_capacity(40);
            comb.combine_bucket(40, |t| t, &mut radix, fold);
            prop_assert_eq!(sorted.len(), radix.len());
            let mut radix_sorted = radix.clone();
            radix_sorted.sort_by_key(|&(t, _)| t);
            prop_assert_eq!(sorted, radix_sorted);
        }

        /// The inbox exposes, per vertex, exactly the slice the stable-sort
        /// oracle groups (or folds, when combining), across multiple
        /// source buckets.
        #[test]
        fn inbox_slices_match_stable_sort_oracle(
            srcs in prop::collection::vec(
                prop::collection::vec((0u32..30, 0u64..1_000_000), 0..60),
                1..5,
            ),
            combinable in any::<bool>(),
        ) {
            let n_locals = 30usize;
            let arrivals: Vec<(VertexId, u64)> = srcs.concat();
            let mut want = reference_groups(&arrivals);
            want.resize(n_locals, Vec::new());
            if combinable {
                for group in &mut want {
                    sort_combine_in_place(group, fold);
                }
            }
            let mut inbox: Inbox<u64> = Inbox::new(n_locals);
            // Two deliveries: the second checks epoch retirement of the
            // first round's tables.
            for _round in 0..2 {
                inbox.deliver(srcs.iter().map(|s| s.as_slice()), |t| t, combinable, fold);
                prop_assert_eq!(inbox.len(), want.iter().map(Vec::len).sum::<usize>());
                prop_assert_eq!(inbox.is_empty(), arrivals.is_empty());
                for v in 0..n_locals as u32 {
                    prop_assert_eq!(inbox.msgs_of(v), want[v as usize].as_slice(), "vertex {}", v);
                }
            }
        }
    }

    #[test]
    fn counted_groups_keep_arrival_order() {
        let srcs: Vec<Vec<(VertexId, u64)>> =
            vec![vec![(2, 10), (1, 11), (2, 12)], vec![(1, 13), (2, 14)]];
        let mut inbox: Inbox<u64> = Inbox::new(3);
        inbox.deliver(srcs.iter().map(|s| s.as_slice()), |t| t, false, fold);
        assert_eq!(inbox.msgs_of(2), &[(2, 10), (2, 12), (2, 14)]);
        assert_eq!(inbox.msgs_of(1), &[(1, 11), (1, 13)]);
        assert_eq!(inbox.msgs_of(0), &[] as &[(VertexId, u64)]);
        assert_eq!(inbox.len(), 5);
        let all = reference_groups(&[(2, 10), (1, 11), (2, 12), (1, 13), (2, 14)]);
        for (v, group) in all.iter().enumerate() {
            assert_eq!(inbox.msgs_of(v as u32), group.as_slice());
        }
    }

    #[test]
    fn combined_delivery_folds_in_arrival_order() {
        let srcs: Vec<Vec<(VertexId, u64)>> = vec![vec![(0, 3), (0, 5)], vec![(0, 7)]];
        let mut inbox: Inbox<u64> = Inbox::new(1);
        inbox.deliver(srcs.iter().map(|s| s.as_slice()), |t| t, true, fold);
        assert_eq!(inbox.msgs_of(0), &[(0, fold(fold(3, 5), 7))]);
        assert_eq!(inbox.len(), 1);
    }

    /// The acceptance criterion's pooling guarantee: after warm-up, steady
    /// traffic causes zero buffer growth in the radix structures.
    #[test]
    fn radix_buffers_stop_growing_after_warmup() {
        let n_locals = 64usize;
        let srcs: Vec<Vec<(VertexId, u64)>> = (0..4)
            .map(|s| (0..200).map(|i| (((s * 7 + i) % 64) as u32, i as u64)).collect())
            .collect();
        let mut inbox: Inbox<u64> = Inbox::new(n_locals);
        let mut comb: Combiner<u64> = Combiner::with_capacity(n_locals);
        for combinable in [false, true] {
            for _ in 0..2 {
                let mut bucket = srcs[0].clone();
                comb.combine_bucket(n_locals, |t| t, &mut bucket, fold);
                inbox.deliver(srcs.iter().map(|s| s.as_slice()), |t| t, combinable, fold);
            }
        }
        let inbox_warm = inbox.grows();
        let comb_warm = comb.grows();
        for round in 0..10 {
            for combinable in [false, true] {
                let mut bucket = srcs[0].clone();
                comb.combine_bucket(n_locals, |t| t, &mut bucket, fold);
                inbox.deliver(srcs.iter().map(|s| s.as_slice()), |t| t, combinable, fold);
                assert_eq!(inbox.grows(), inbox_warm, "inbox grew on round {round}");
                assert_eq!(comb.grows(), comb_warm, "combiner grew on round {round}");
            }
        }
    }

    /// Epoch wrap-around keeps slices correct (forced by starting near
    /// `u32::MAX`).
    #[test]
    fn epoch_wrap_is_safe() {
        let mut inbox: Inbox<u64> = Inbox::new(4);
        inbox.epoch = u32::MAX - 1;
        inbox.stamp.fill(u32::MAX - 1);
        let srcs: Vec<Vec<(VertexId, u64)>> = vec![vec![(1, 5)], vec![(3, 6)]];
        for _ in 0..4 {
            inbox.deliver(srcs.iter().map(|s| s.as_slice()), |t| t, false, fold);
            assert_eq!(inbox.msgs_of(1), &[(1, 5)]);
            assert_eq!(inbox.msgs_of(3), &[(3, 6)]);
            assert_eq!(inbox.msgs_of(0), &[] as &[(VertexId, u64)]);
        }
        let mut comb: Combiner<u64> = Combiner::with_capacity(4);
        comb.epoch = u32::MAX - 1;
        comb.stamp.fill(u32::MAX - 1);
        for _ in 0..4 {
            let mut bucket = vec![(2u32, 3u64), (2, 4), (0, 9)];
            comb.combine_bucket(4, |t| t, &mut bucket, fold);
            bucket.sort_by_key(|&(t, _)| t);
            assert_eq!(bucket, vec![(0, 9), (2, fold(3, 4))]);
        }
    }

    /// The serial reference for [`par_scatter`]: one in-order pass.
    fn serial_scatter(msgs: &[(VertexId, u64)], buckets: usize) -> Vec<Vec<(VertexId, u64)>> {
        let mut out: Vec<Vec<(VertexId, u64)>> = vec![Vec::new(); buckets];
        for &(t, m) in msgs {
            out[t as usize % buckets].push((t, m));
        }
        out
    }

    /// `par_scatter` reproduces the serial scatter's exact per-bucket
    /// sequences — and therefore identical arrival-order combiner folds —
    /// at every chunk size, including chunks larger than the input.
    #[test]
    fn par_scatter_matches_serial_at_any_chunk_size() {
        let _guard = crate::exec::TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let msgs: Vec<(VertexId, u64)> =
            (0..997u64).map(|i| (((i * 31 + 7) % 53) as u32, i)).collect();
        let buckets = 5usize;
        let want = serial_scatter(&msgs, buckets);
        let mut want_folded: Vec<Vec<(VertexId, u64)>> = want.clone();
        for b in &mut want_folded {
            sort_combine_in_place(b, fold);
        }
        for threads in [1usize, 4] {
            crate::exec::set_threads(threads);
            for chunk in [1usize, 7, 64, 1 << 30] {
                crate::exec::set_chunk_size(chunk);
                let mut out: Vec<Vec<(VertexId, u64)>> = vec![Vec::new(); buckets];
                par_scatter(
                    &msgs,
                    buckets,
                    |_, &(t, m)| ((t as usize % buckets), (t, m)),
                    &mut out,
                );
                assert_eq!(out, want, "threads={threads} chunk={chunk}");
                // The non-commutative fold downstream agrees too.
                for b in &mut out {
                    sort_combine_in_place(b, fold);
                }
                assert_eq!(out, want_folded, "folded, threads={threads} chunk={chunk}");
            }
        }
        crate::exec::set_threads(1);
        crate::exec::set_chunk_size(4096);
    }

    /// Index-based routing (the vertex-cut `machine_of_edge` shape) also
    /// survives chunking, and empty inputs are a no-op.
    #[test]
    fn par_scatter_routes_by_index() {
        let _guard = crate::exec::TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::exec::set_threads(4);
        crate::exec::set_chunk_size(3);
        let items: Vec<u64> = (0..100).collect();
        let mut out: Vec<Vec<u64>> = vec![Vec::new(); 4];
        par_scatter(&items, 4, |i, &x| (i % 4, x * 2), &mut out);
        for (dst, b) in out.iter().enumerate() {
            let want: Vec<u64> =
                (0..100).filter(|i| *i as usize % 4 == dst).map(|i| i * 2).collect();
            assert_eq!(b, &want);
        }
        let empty: Vec<u64> = Vec::new();
        let mut out2: Vec<Vec<u64>> = vec![Vec::new(); 2];
        par_scatter(&empty, 2, |i, &x| (i % 2, x), &mut out2);
        assert!(out2.iter().all(|b| b.is_empty()));
        crate::exec::set_threads(1);
        crate::exec::set_chunk_size(4096);
    }

    /// An empty delivery clears the inbox and leaves stale slices
    /// unreachable.
    #[test]
    fn empty_delivery_resets() {
        let srcs: Vec<Vec<(VertexId, u64)>> = vec![vec![(0, 1), (1, 2)]];
        let none: Vec<Vec<(VertexId, u64)>> = vec![Vec::new()];
        for combinable in [false, true] {
            let mut inbox: Inbox<u64> = Inbox::new(2);
            inbox.deliver(srcs.iter().map(|s| s.as_slice()), |t| t, combinable, fold);
            assert_eq!(inbox.len(), 2);
            inbox.deliver(none.iter().map(|s| s.as_slice()), |t| t, combinable, fold);
            assert!(inbox.is_empty());
            assert_eq!(inbox.msgs_of(0), &[] as &[(VertexId, u64)]);
            assert_eq!(inbox.msgs_of(1), &[] as &[(VertexId, u64)]);
        }
    }
}
