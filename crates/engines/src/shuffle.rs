//! Zero-sort radix message shuffle.
//!
//! Grouping a superstep's messages by target vertex is structurally a
//! counting problem, so nothing here comparison-sorts or binary-searches.
//! The path is addressed by *fragment-local dense vertex ids* (see
//! `graphbench_partition::LocalIndex`), and on the BSP path the local id
//! travels with the message: the sender resolves `(machine, local id)` once
//! per send and every later stage indexes by the carried id.
//!
//! * **sender-side combining** ([`Combiner`]) folds a destination's chunk
//!   buckets, taken as ordered *sources*, through a dense per-local-target
//!   slot array and emits one entry per target into the shard outbox —
//!   epoch tags mark which slots are live, so nothing is sorted, nothing is
//!   cleared between buckets, and the sources are never concatenated;
//! * **delivery** ([`Inbox`]) files payloads per local id — one combining
//!   pass, or a two-pass count/place — behind a `(start, len)` offset
//!   table, giving O(1) per-vertex slicing in the next compute phase, and
//!   keeps a one-bit-per-local-id "has messages" bitmap that the BSP
//!   runtime walks instead of testing every vertex;
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
/// A slot whose tag equals the current epoch is live, anything else is
/// free — bumping the epoch retires every slot at once, so buckets for
/// different destination machines share one scratch array with no clearing
/// in between.
#[derive(Debug)]
pub struct Combiner<M> {
    stamp: Vec<u32>,
    /// Folded value per live slot (lazily sized — `M` has no default).
    val: Vec<M>,
    /// (id the message carried, local id) per first touch, in touch order.
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

    /// Combine the messages of `sources` — one destination's buckets, each
    /// entry `(local target id, payload)`, scanned in order — into `out`,
    /// replacing its contents, with no intermediate copy of the sources.
    /// Each target's messages fold left-to-right in arrival order — the
    /// value a stable sort by target of the concatenated sources followed
    /// by an adjacent fold would produce — and the surviving entries come
    /// out in first-touch order (which downstream consumers never observe:
    /// only counts and per-target values matter).
    pub fn combine_sources<'a>(
        &mut self,
        n_locals: usize,
        sources: impl Iterator<Item = &'a [(u32, M)]>,
        out: &mut Vec<(u32, M)>,
        combine: impl FnMut(M, M) -> M,
    ) where
        M: 'a,
    {
        self.fold(n_locals, |l| l, sources, combine);
        self.emit(out);
    }

    /// [`Combiner::combine_sources`] for a single bucket addressed by
    /// *global* target ids, in place: `local_of` maps each target to its
    /// dense local id.
    pub fn combine_bucket(
        &mut self,
        n_locals: usize,
        local_of: impl Fn(VertexId) -> u32,
        buf: &mut Vec<(VertexId, M)>,
        combine: impl FnMut(M, M) -> M,
    ) {
        self.fold(n_locals, local_of, std::iter::once(buf.as_slice()), combine);
        self.emit(buf);
    }

    /// The one combining core: open a fresh epoch, then fold every message
    /// into its target's slot, noting each target on first touch.
    fn fold<'a>(
        &mut self,
        n_locals: usize,
        local_of: impl Fn(VertexId) -> u32,
        sources: impl Iterator<Item = &'a [(VertexId, M)]>,
        mut combine: impl FnMut(M, M) -> M,
    ) where
        M: 'a,
    {
        if self.stamp.len() < n_locals {
            self.grows += 1;
            self.stamp.resize(n_locals, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        let touched_cap = self.touched.capacity();
        self.touched.clear();
        for src in sources {
            if self.val.len() < self.stamp.len() {
                // Any payload serves as the fill: a slot is written on
                // first touch before it is ever read.
                let Some(&(_, fill)) = src.first() else { continue };
                self.grows += 1;
                self.val.resize(self.stamp.len(), fill);
            }
            for &(t, m) in src {
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
        if self.touched.capacity() > touched_cap {
            self.grows += 1;
        }
    }

    /// Replace `out` with the last fold's result, one entry per target.
    fn emit(&mut self, out: &mut Vec<(VertexId, M)>) {
        let cap = out.capacity();
        out.clear();
        out.extend(self.touched.iter().map(|&(t, l)| (t, self.val[l as usize])));
        if out.capacity() > cap {
            self.grows += 1;
        }
    }

    /// Number of internal buffer growths since construction. Constant
    /// traffic must stop growing this after the first superstep.
    pub fn grows(&self) -> u64 {
        self.grows
    }
}

/// The indices in `lo..hi` whose bit is set in `words` (bit `i` lives in
/// word `i / 64`), ascending: each word is masked at the range's ends and
/// its set bits are peeled off with `trailing_zeros`.
fn set_bits(words: &[u64], lo: usize, hi: usize) -> impl Iterator<Item = u32> + '_ {
    (lo / 64..hi.div_ceil(64)).flat_map(move |w| {
        let mut bits = words[w];
        if w == lo / 64 {
            bits &= !0 << (lo % 64);
        }
        if w == (hi - 1) / 64 {
            bits &= !0 >> (63 - (hi - 1) % 64);
        }
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let i = (w * 64) as u32 + bits.trailing_zeros();
                bits &= bits - 1;
                i
            })
        })
    })
}

/// One machine's inbox: the payloads delivered to it, grouped per
/// fragment-local target id.
///
/// `has` holds one bit per local id, set iff that vertex has messages; it
/// is what marks a local id's `start`/`count` entries valid, and what
/// [`Inbox::targets`] walks.
#[derive(Debug, Clone)]
pub struct Inbox<M> {
    /// Message payloads for this machine, grouped by local id.
    items: Vec<M>,
    has: Vec<u64>,
    start: Vec<u32>,
    count: Vec<u32>,
    grows: u64,
}

impl<M: Copy> Inbox<M> {
    /// Inbox for a machine owning `n_locals` vertices.
    pub fn new(n_locals: usize) -> Inbox<M> {
        Inbox {
            items: Vec::new(),
            has: vec![0; n_locals.div_ceil(64)],
            start: vec![0; n_locals],
            count: vec![0; n_locals],
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

    /// Messages addressed to the vertex with fragment-local id `l`, in
    /// arrival order: one bit test and one offset-table read.
    pub fn msgs_of(&self, l: u32) -> &[M] {
        let l = l as usize;
        if self.has[l / 64] >> (l % 64) & 1 == 0 {
            return &[];
        }
        let s = self.start[l] as usize;
        &self.items[s..s + self.count[l] as usize]
    }

    /// The local ids in `lo..hi` that have messages, ascending. The cost
    /// follows the number of targets, not `hi - lo`.
    pub fn targets(&self, lo: u32, hi: u32) -> impl Iterator<Item = u32> + '_ {
        set_bits(&self.has, lo as usize, hi as usize)
    }

    /// Marks local id `l` as having messages; `true` on its first touch
    /// since the bitmap was last zeroed.
    fn first_touch(&mut self, l: usize) -> bool {
        let (word, bit) = (&mut self.has[l / 64], 1u64 << (l % 64));
        let first = *word & bit == 0;
        *word |= bit;
        first
    }

    /// Replace this inbox's contents with the messages in `sources`, each
    /// entry `(local target id, payload)` (scanned in order — source order
    /// is the inter-machine arrival order). With `combinable`, each target
    /// keeps a single message: its arrivals folded left-to-right through
    /// `combine`.
    pub fn deliver<'a, S>(&mut self, sources: S, combinable: bool, combine: impl FnMut(M, M) -> M)
    where
        S: Iterator<Item = &'a [(u32, M)]> + Clone,
        M: 'a,
    {
        let items_cap = self.items.capacity();
        self.has.fill(0);
        self.items.clear();
        if combinable {
            self.deliver_combined(sources, combine)
        } else {
            self.deliver_counted(sources)
        }
        if self.items.capacity() > items_cap {
            self.grows += 1;
        }
    }

    /// Combining delivery, one pass: a target's first message is appended
    /// to `items` (so targets sit in first-touch order, one entry each) and
    /// later ones fold into that entry.
    fn deliver_combined<'a>(
        &mut self,
        sources: impl Iterator<Item = &'a [(u32, M)]>,
        mut combine: impl FnMut(M, M) -> M,
    ) where
        M: 'a,
    {
        for src in sources {
            for &(l, m) in src {
                let l = l as usize;
                if self.first_touch(l) {
                    self.start[l] = self.items.len() as u32;
                    self.count[l] = 1;
                    self.items.push(m);
                } else {
                    let folded = &mut self.items[self.start[l] as usize];
                    *folded = combine(*folded, m);
                }
            }
        }
    }

    /// Non-combining delivery by two-pass counting: count messages per
    /// local target (first pass), turn the counts into starting offsets
    /// with a prefix sum over the bitmap's set bits, then place each payload
    /// behind its group's start, re-counting as it goes (second pass).
    /// Groups sit in ascending local id order and each group keeps arrival
    /// order.
    fn deliver_counted<'a, S>(&mut self, sources: S)
    where
        S: Iterator<Item = &'a [(u32, M)]> + Clone,
        M: 'a,
    {
        let Some(&(_, filler)) = sources.clone().flatten().next() else { return };
        for src in sources.clone() {
            for &(l, _) in src {
                let l = l as usize;
                if self.first_touch(l) {
                    self.count[l] = 1;
                } else {
                    self.count[l] += 1;
                }
            }
        }
        let mut total = 0u32;
        for l in set_bits(&self.has, 0, self.start.len()) {
            let l = l as usize;
            self.start[l] = total;
            total += std::mem::take(&mut self.count[l]);
        }
        // Every slot is overwritten by the placement pass; the filler only
        // satisfies the type (no Default bound on M).
        self.items.resize(total as usize, filler);
        for src in sources {
            for &(l, m) in src {
                let l = l as usize;
                self.items[(self.start[l] + self.count[l]) as usize] = m;
                self.count[l] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbench_graph::rng::{for_each_seed, Rng};

    /// An order-sensitive, non-commutative fold: catches any deviation
    /// from arrival-order combining.
    fn fold(a: u64, b: u64) -> u64 {
        a.wrapping_mul(31).wrapping_add(b)
    }

    /// Group a message list's payloads by target, in arrival order — the
    /// reference the radix structures must match per target.
    fn reference_groups(msgs: &[(u32, u64)], n_locals: usize) -> Vec<Vec<u64>> {
        let mut groups = vec![Vec::new(); n_locals];
        for &(t, m) in msgs {
            groups[t as usize].push(m);
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

    /// Fragment size of the inbox property: three bitmap words, the last
    /// one partial.
    const LOCALS: usize = 150;

    /// Up to 199 messages over 40 targets.
    fn arb_msgs(rng: &mut Rng) -> Vec<(u32, u64)> {
        (0..rng.below(200)).map(|_| (rng.below_u32(40), rng.below(1_000_000) as u64)).collect()
    }

    /// One to four source buckets of up to 59 messages over [`LOCALS`].
    fn arb_sources(rng: &mut Rng) -> Vec<Vec<(u32, u64)>> {
        let bucket = |rng: &mut Rng| {
            (0..rng.below(60))
                .map(|_| (rng.below_u32(LOCALS as u32), rng.below(1_000_000) as u64))
                .collect()
        };
        (0..1 + rng.below(4)).map(|_| bucket(rng)).collect()
    }

    /// `Combiner::combine_bucket` and the stable-sort oracle agree on
    /// the combined value of every target.
    #[test]
    fn combiner_matches_sorting_combine() {
        for_each_seed(256, |_, rng| {
            let msgs = arb_msgs(rng);
            let mut sorted = msgs.clone();
            sort_combine_in_place(&mut sorted, fold);
            let mut radix = msgs.clone();
            let mut comb: Combiner<u64> = Combiner::with_capacity(40);
            comb.combine_bucket(40, |t| t, &mut radix, fold);
            assert_eq!(sorted.len(), radix.len());
            let mut radix_sorted = radix.clone();
            radix_sorted.sort_by_key(|&(t, _)| t);
            assert_eq!(sorted, radix_sorted);
        });
    }

    /// However a message list is cut into sources, the multi-source
    /// combine yields the oracle's value for every target of the
    /// concatenation, in the concatenation's first-touch order.
    #[test]
    fn multi_source_combine_matches_oracle_of_concatenation() {
        for_each_seed(256, |_, rng| {
            let msgs = arb_msgs(rng);
            let cuts: Vec<usize> = (0..rng.below(6)).map(|_| rng.below(201)).collect();
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(msgs.len())).collect();
            cuts.extend([0, msgs.len()]);
            cuts.sort_unstable();
            let sources = cuts.windows(2).map(|w| &msgs[w[0]..w[1]]);
            let mut comb: Combiner<u64> = Combiner::with_capacity(40);
            let mut out = vec![(7, 7)]; // stale contents must be replaced
            comb.combine_sources(40, sources, &mut out, fold);

            let mut first_touch: Vec<u32> = Vec::new();
            for &(t, _) in &msgs {
                if !first_touch.contains(&t) {
                    first_touch.push(t);
                }
            }
            assert_eq!(out.iter().map(|&(t, _)| t).collect::<Vec<_>>(), first_touch);
            let mut sorted = msgs.clone();
            sort_combine_in_place(&mut sorted, fold);
            out.sort_by_key(|&(t, _)| t);
            assert_eq!(out, sorted);
        });
    }

    /// The inbox exposes, per vertex, exactly the slice the stable-sort
    /// oracle groups (or folds, when combining) across multiple source
    /// buckets, and its bitmap names exactly the vertices with
    /// messages — also after a second delivery of other messages in
    /// either mode, so no table entry or bit outlives its delivery.
    #[test]
    fn inbox_slices_match_stable_sort_oracle() {
        for_each_seed(256, |_, rng| {
            let rounds = [(); 2].map(|_| (arb_sources(rng), rng.below(2) == 1));
            let a = rng.below_u32(LOCALS as u32 + 1);
            let b = rng.below_u32(LOCALS as u32 + 1);
            let mut inbox: Inbox<u64> = Inbox::new(LOCALS);
            for (srcs, combinable) in &rounds {
                let mut want = reference_groups(&srcs.concat(), LOCALS);
                if *combinable {
                    for group in want.iter_mut().filter(|g| !g.is_empty()) {
                        *group = vec![group[1..].iter().fold(group[0], |x, &y| fold(x, y))];
                    }
                }
                inbox.deliver(srcs.iter().map(|s| s.as_slice()), *combinable, fold);
                assert_eq!(inbox.len(), want.iter().map(Vec::len).sum::<usize>());
                assert_eq!(inbox.is_empty(), srcs.concat().is_empty());
                for v in 0..LOCALS as u32 {
                    assert_eq!(inbox.msgs_of(v), want[v as usize].as_slice(), "vertex {}", v);
                }
                let (lo, hi) = (a.min(b), a.max(b));
                let in_range: Vec<u32> =
                    (lo..hi).filter(|&v| !want[v as usize].is_empty()).collect();
                assert_eq!(inbox.targets(lo, hi).collect::<Vec<_>>(), in_range);
            }
        });
    }

    #[test]
    fn counted_groups_keep_arrival_order() {
        let srcs: Vec<Vec<(u32, u64)>> =
            vec![vec![(2, 10), (1, 11), (2, 12)], vec![(1, 13), (2, 14)]];
        let mut inbox: Inbox<u64> = Inbox::new(3);
        inbox.deliver(srcs.iter().map(|s| s.as_slice()), false, fold);
        assert_eq!(inbox.msgs_of(2), &[10, 12, 14]);
        assert_eq!(inbox.msgs_of(1), &[11, 13]);
        assert_eq!(inbox.msgs_of(0), &[] as &[u64]);
        assert_eq!(inbox.len(), 5);
        assert_eq!(inbox.targets(0, 3).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn combined_delivery_folds_in_arrival_order() {
        let srcs: Vec<Vec<(u32, u64)>> = vec![vec![(0, 3), (0, 5)], vec![(0, 7)]];
        let mut inbox: Inbox<u64> = Inbox::new(1);
        inbox.deliver(srcs.iter().map(|s| s.as_slice()), true, fold);
        assert_eq!(inbox.msgs_of(0), &[fold(fold(3, 5), 7)]);
        assert_eq!(inbox.len(), 1);
    }

    /// A range's walk is masked at both ends, wherever they fall relative
    /// to the bitmap's word boundaries.
    #[test]
    fn targets_respect_range_ends_across_words() {
        let all: Vec<(u32, u64)> = (0..200).map(|l| (l, 0)).collect();
        let mut inbox: Inbox<u64> = Inbox::new(200);
        inbox.deliver(std::iter::once(all.as_slice()), true, fold);
        for (lo, hi) in [(0, 200), (0, 1), (63, 65), (64, 128), (1, 64), (65, 199), (199, 200)] {
            assert_eq!(inbox.targets(lo, hi).collect::<Vec<_>>(), (lo..hi).collect::<Vec<_>>());
        }
        assert_eq!(inbox.targets(64, 64).count(), 0);
        assert_eq!(inbox.targets(70, 70).count(), 0);
    }

    /// The acceptance criterion's pooling guarantee: after warm-up, steady
    /// traffic causes zero buffer growth in the radix structures.
    #[test]
    fn radix_buffers_stop_growing_after_warmup() {
        let n_locals = 64usize;
        let srcs: Vec<Vec<(u32, u64)>> = (0..4)
            .map(|s| (0..200).map(|i| (((s * 7 + i) % 64) as u32, i as u64)).collect())
            .collect();
        let mut inbox: Inbox<u64> = Inbox::new(n_locals);
        let mut comb: Combiner<u64> = Combiner::with_capacity(n_locals);
        let mut out: Vec<(u32, u64)> = Vec::new();
        let mut round = |inbox: &mut Inbox<u64>, comb: &mut Combiner<u64>, combinable: bool| {
            let mut bucket = srcs[0].clone();
            comb.combine_bucket(n_locals, |t| t, &mut bucket, fold);
            comb.combine_sources(n_locals, srcs.iter().map(|s| s.as_slice()), &mut out, fold);
            inbox.deliver(srcs.iter().map(|s| s.as_slice()), combinable, fold);
        };
        for combinable in [false, true, false, true] {
            round(&mut inbox, &mut comb, combinable);
        }
        let inbox_warm = inbox.grows();
        let comb_warm = comb.grows();
        for i in 0..10 {
            for combinable in [false, true] {
                round(&mut inbox, &mut comb, combinable);
                assert_eq!(inbox.grows(), inbox_warm, "inbox grew on round {i}");
                assert_eq!(comb.grows(), comb_warm, "combiner grew on round {i}");
            }
        }
    }

    /// Epoch wrap-around keeps combining correct (forced by starting near
    /// `u32::MAX`).
    #[test]
    fn epoch_wrap_is_safe() {
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
        let srcs: Vec<Vec<(u32, u64)>> = vec![vec![(0, 1), (1, 2)]];
        let none: Vec<Vec<(u32, u64)>> = vec![Vec::new()];
        for combinable in [false, true] {
            let mut inbox: Inbox<u64> = Inbox::new(2);
            inbox.deliver(srcs.iter().map(|s| s.as_slice()), combinable, fold);
            assert_eq!(inbox.len(), 2);
            inbox.deliver(none.iter().map(|s| s.as_slice()), combinable, fold);
            assert!(inbox.is_empty());
            assert_eq!(inbox.msgs_of(0), &[] as &[u64]);
            assert_eq!(inbox.msgs_of(1), &[] as &[u64]);
            assert_eq!(inbox.targets(0, 2).count(), 0);
        }
    }
}
