//! Zero-sort radix message shuffle.
//!
//! Grouping a superstep's messages by target vertex is structurally a
//! counting problem, so nothing here comparison-sorts or binary-searches.
//! The path is addressed by *fragment-local dense vertex ids* (see
//! `graphbench_partition::LocalIndex`), and on the BSP message path the
//! local id travels with the message: the sender resolves `(machine, local
//! id)` once per send and every later stage indexes by the carried id.
//!
//! [`par_scatter`] serves the product (vertex-cut set-up). The combiner and
//! the inbox serve only the BSP message path, which is compiled for tests
//! as the oracle of the rank and label paths, and the benchmark's combine
//! probe.
//!
//! * **combining** ([`Combiner`]) keeps one dense slot per local target,
//!   held at the program's identity message, so every message folds as
//!   `val[l] = combine(val[l], m)` with no first-touch test; a liveness
//!   bitmap names the slots a drain hands on and resets to the identity;
//! * **delivery** ([`Inbox`]) takes the source machines in ascending order.
//!   Combining, it folds each source's chunk buckets into a scratch combiner
//!   (the sender-side fold) and drains that into its own accumulator (the
//!   receiver-side fold); otherwise it counts and places payloads per local
//!   id behind a `(start, len)` table. Either way it records each source's
//!   post-combine count for wire accounting and keeps a one-bit-per-local-id
//!   "has messages" bitmap that the message path walks;
//! * **all buffers are pooled**: slot arrays, offset tables, and item
//!   vectors are allocated once and reused across supersteps ([`Inbox::grows`]
//!   and [`Combiner::grows`] count reallocations so tests can assert the
//!   steady state allocates nothing).
//!
//! The invariant everything downstream rests on is *arrival order*: each
//! target's messages are grouped in the order they arrived — sender chunks in
//! index order, source machines in machine order — which is exactly what a
//! stable sort by target would yield; a fold runs left to right within each
//! source, then across the sources in machine order. f64 combiners therefore
//! fold bit-identically at any thread count and chunk size, and per-vertex
//! inbox contents, counts, bytes, journal events and registry values never
//! depend on host scheduling.

use crate::exec;
use graphbench_graph::VertexId;

/// Chunk-parallel scatter of an ordered item sequence into per-destination
/// buckets — the radix shuffle's sender side.
///
/// A two-pass counting scatter over fixed-size index spans
/// ([`exec::uniform_spans`]): each chunk counts its items per bucket, every
/// bucket grows once to its final length, and each chunk then writes its
/// items into its own window of each bucket. Windows sit in chunk order and
/// items keep index order within a chunk, so each bucket is exactly the
/// subsequence a serial `for (i, x) in items { out[route(i, x)].push(..) }`
/// loop would produce — bit-identical at any `GRAPHBENCH_THREADS ×
/// GRAPHBENCH_CHUNK`, which keeps every downstream arrival-order combiner
/// fold (f64 included) and byte/message metric unchanged.
///
/// `route` maps `(index, &item)` to `(bucket, routed item)`; it runs once
/// per pass, so it must be pure. Buckets are appended to, not cleared —
/// callers pass fresh or pre-cleared `out` vectors.
pub fn par_scatter<T, U, F>(items: &[T], num_buckets: usize, route: F, out: &mut [Vec<U>])
where
    T: Sync,
    U: Copy + Send,
    F: Fn(usize, &T) -> (usize, U) + Sync,
{
    assert!(out.len() >= num_buckets, "out has {} buckets, need {num_buckets}", out.len());
    let Some(first) = items.first() else { return };
    let spans = exec::uniform_spans(items.len(), exec::chunk_size());
    // Pass 1: items per (chunk, bucket), chunk-major.
    let mut counts = vec![0usize; spans.len() * num_buckets];
    let mut tasks: Vec<_> = spans.iter().zip(counts.chunks_mut(num_buckets)).collect();
    exec::run_chunks(&mut tasks, |_, &mut (&(s, e), ref mut count)| {
        for (i, x) in (s..e).zip(&items[s..e]) {
            count[route(i, x).0] += 1;
        }
    });
    // Each bucket grows once and is cut into its chunks' windows, in chunk
    // order. The filler only satisfies the type (no Default bound on U):
    // pass 2 overwrites every slot.
    let filler = route(0, first).1;
    let mut windows: Vec<&mut [U]> = (0..counts.len()).map(|_| Default::default()).collect();
    for (b, bucket) in out[..num_buckets].iter_mut().enumerate() {
        let (len, total) = (bucket.len(), counts[b..].iter().step_by(num_buckets).sum());
        bucket.reserve_exact(total);
        bucket.resize(len + total, filler);
        let mut rest = &mut bucket[len..];
        for k in (b..counts.len()).step_by(num_buckets) {
            (windows[k], rest) = std::mem::take(&mut rest).split_at_mut(counts[k]);
        }
    }
    // Pass 2: each chunk fills its own windows, in index order.
    let mut tasks: Vec<_> = spans.iter().zip(windows.chunks_mut(num_buckets)).collect();
    exec::run_chunks(&mut tasks, |_, &mut (&(s, e), ref mut window)| {
        for (i, x) in (s..e).zip(&items[s..e]) {
            let (b, u) = route(i, x);
            let (slot, rest) =
                std::mem::take(&mut window[b]).split_first_mut().expect("route must be pure");
            *slot = u;
            window[b] = rest;
        }
    });
}

/// Dense combining slots, one per fragment-local target id, each held at the
/// combine's identity: a message folds as `val[l] = combine(val[l], m)`
/// whether or not `l` was touched before, and a liveness bitmap names the
/// slots a drain must hand on and reset.
#[derive(Debug, Clone)]
pub struct Combiner<M> {
    /// Folded value per slot; `identity` wherever the slot is not live.
    val: Vec<M>,
    /// Bit `l` (in word `l / 64`) is set iff slot `l` is live.
    live: Vec<u64>,
    identity: M,
    grows: u64,
}

impl<M: Copy + Default> Combiner<M> {
    /// [`Combiner::new`] seeded with `M::default()`, which must be the
    /// combine's identity (`+0.0` is, for sums of non-negative f64s).
    pub fn with_capacity(max_locals: usize) -> Combiner<M> {
        Combiner::new(max_locals, M::default())
    }
}

impl<M: Copy> Combiner<M> {
    /// Slots for fragments of up to `max_locals` vertices (grown on demand,
    /// counted by [`Combiner::grows`]). `combine(identity, m)` must equal
    /// `m`, bit for bit, for every message `m`.
    pub fn new(max_locals: usize, identity: M) -> Combiner<M> {
        Combiner {
            val: vec![identity; max_locals],
            live: vec![0; max_locals.div_ceil(64)],
            identity,
            grows: 0,
        }
    }

    /// Combine one bucket addressed by *global* target ids, in place:
    /// `local_of` maps each target to its dense local id. Each target keeps
    /// one entry, at its first position, holding its messages folded left to
    /// right — the value a stable sort by target and an adjacent fold give.
    pub fn combine_bucket(
        &mut self,
        n_locals: usize,
        local_of: impl Fn(VertexId) -> u32,
        buf: &mut Vec<(VertexId, M)>,
        mut combine: impl FnMut(M, M) -> M,
    ) {
        if self.val.len() < n_locals {
            self.grows += 1;
            self.val.resize(n_locals, self.identity);
            self.live.resize(n_locals.div_ceil(64), 0);
        }
        self.fold(buf, &local_of, &mut combine);
        let mut kept = 0;
        for i in 0..buf.len() {
            let t = buf[i].0;
            if let Some(v) = self.take(local_of(t) as usize) {
                buf[kept] = (t, v);
                kept += 1;
            }
        }
        buf.truncate(kept);
    }

    /// The one combining core: fold `bucket` into its targets' slots, left
    /// to right.
    fn fold(
        &mut self,
        bucket: &[(VertexId, M)],
        local_of: impl Fn(VertexId) -> u32,
        combine: &mut impl FnMut(M, M) -> M,
    ) {
        for &(t, m) in bucket {
            self.fold_one(local_of(t) as usize, m, combine);
        }
    }

    fn fold_one(&mut self, l: usize, m: M, combine: &mut impl FnMut(M, M) -> M) {
        self.val[l] = combine(self.val[l], m);
        self.live[l / 64] |= 1 << (l % 64);
    }

    fn is_live(&self, l: usize) -> bool {
        self.live[l / 64] >> (l % 64) & 1 == 1
    }

    /// Slot `l`'s value if it is live, leaving the slot reset.
    fn take(&mut self, l: usize) -> Option<M> {
        let word = &mut self.live[l / 64];
        let bit = 1u64 << (l % 64);
        (*word & bit != 0).then(|| {
            *word &= !bit;
            std::mem::replace(&mut self.val[l], self.identity)
        })
    }

    /// Hand each live slot to `emit` as `(local id, value)`, reset it, and
    /// return how many there were. `folded` are the buckets folded since the
    /// last drain: with fewer messages than the bitmap has words, the walk
    /// goes over them instead of the bitmap, so sparse traffic stays cheap.
    fn drain<'a>(
        &mut self,
        folded: impl Iterator<Item = &'a [(u32, M)]> + Clone,
        mut emit: impl FnMut(u32, M),
    ) -> u64
    where
        M: 'a,
    {
        if folded.clone().map(<[_]>::len).sum::<usize>() >= self.live.len() {
            return self.drain_all(emit);
        }
        let mut n = 0;
        for &(l, _) in folded.flatten() {
            if let Some(v) = self.take(l as usize) {
                emit(l, v);
                n += 1;
            }
        }
        n
    }

    /// [`Combiner::drain`] by the bitmap walk, in ascending local id.
    fn drain_all(&mut self, mut emit: impl FnMut(u32, M)) -> u64 {
        let mut n = 0;
        for l in set_bits(&self.live, 0, self.val.len()) {
            emit(l, std::mem::replace(&mut self.val[l as usize], self.identity));
            n += 1;
        }
        self.live.fill(0);
        n
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
pub(crate) fn set_bits(words: &[u64], lo: usize, hi: usize) -> impl Iterator<Item = u32> + '_ {
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

/// One machine's inbox: the payloads delivered to it, per fragment-local
/// target id, and how many each source machine sent.
///
/// `acc`'s liveness bitmap holds one bit per local id, set iff that vertex
/// has messages; it is what marks a local id's entries valid, and what
/// [`Inbox::targets`] walks.
#[derive(Debug, Clone)]
pub struct Inbox<M> {
    /// A counting delivery's payloads, grouped by local id.
    items: Vec<M>,
    start: Vec<u32>,
    count: Vec<u32>,
    /// A combining delivery's folded payload per local id.
    acc: Combiner<M>,
    /// One source machine's buckets, folded before they drain into `acc`.
    scratch: Combiner<M>,
    /// Whether the last delivery combined (payloads in `acc`, not `items`).
    combined: bool,
    len: usize,
    per_source: Vec<u64>,
    grows: u64,
}

impl<M: Copy> Inbox<M> {
    /// Inbox for a machine owning `n_locals` vertices; combining folds from
    /// `identity` (see [`Combiner::new`]).
    pub fn new(n_locals: usize, identity: M) -> Inbox<M> {
        Inbox {
            items: Vec::new(),
            start: vec![0; n_locals],
            count: vec![0; n_locals],
            acc: Combiner::new(n_locals, identity),
            scratch: Combiner::new(n_locals, identity),
            combined: false,
            len: 0,
            per_source: Vec::new(),
            grows: 0,
        }
    }

    /// Number of delivered messages (post-combining).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Messages each source machine contributed to the last delivery, in
    /// machine order, counted after combining.
    pub fn per_source(&self) -> &[u64] {
        &self.per_source
    }

    /// Number of internal buffer growths since construction. Constant
    /// traffic must stop growing this after the first delivery.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Messages addressed to the vertex with fragment-local id `l`, in
    /// arrival order: one bit test and one or two table reads.
    pub fn msgs_of(&self, l: u32) -> &[M] {
        let l = l as usize;
        if !self.acc.is_live(l) {
            return &[];
        }
        if self.combined {
            return std::slice::from_ref(&self.acc.val[l]);
        }
        let s = self.start[l] as usize;
        &self.items[s..s + self.count[l] as usize]
    }

    /// The local ids in `lo..hi` that have messages, ascending. The cost
    /// follows the number of targets, not `hi - lo`.
    pub fn targets(&self, lo: u32, hi: u32) -> impl Iterator<Item = u32> + '_ {
        set_bits(&self.acc.live, lo as usize, hi as usize)
    }

    /// Replace this inbox's contents with the messages of `sources`: one
    /// item per source machine, in machine order, each yielding that
    /// machine's buckets of `(local target id, payload)` in chunk order.
    /// With `combinable`, each target keeps a single message: every source's
    /// messages fold left to right, then the sources' results fold in order.
    pub fn deliver<'a, S, B>(
        &mut self,
        sources: S,
        combinable: bool,
        mut combine: impl FnMut(M, M) -> M,
    ) where
        S: Iterator<Item = B> + Clone,
        B: Iterator<Item = &'a [(u32, M)]> + Clone,
        M: 'a,
    {
        let caps = (self.items.capacity(), self.per_source.capacity());
        self.acc.drain_all(|_, _| {});
        self.per_source.clear();
        self.combined = combinable;
        if combinable {
            let Inbox { acc, scratch, per_source, .. } = self;
            for src in sources {
                for bucket in src.clone() {
                    scratch.fold(bucket, |l| l, &mut combine);
                }
                per_source
                    .push(scratch.drain(src, |l, v| acc.fold_one(l as usize, v, &mut combine)));
            }
            self.len = self.acc.live.iter().map(|w| w.count_ones() as usize).sum();
        } else {
            let counts = sources.clone().map(|src| src.map(|b| b.len() as u64).sum::<u64>());
            self.per_source.extend(counts);
            self.deliver_counted(sources.flatten());
            self.len = self.items.len();
        }
        if self.items.capacity() > caps.0 || self.per_source.capacity() > caps.1 {
            self.grows += 1;
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
        self.items.clear();
        let Some(&(_, filler)) = sources.clone().flatten().next() else { return };
        for src in sources.clone() {
            for &(l, _) in src {
                let l = l as usize;
                if self.acc.is_live(l) {
                    self.count[l] += 1;
                } else {
                    self.acc.live[l / 64] |= 1 << (l % 64);
                    self.count[l] = 1;
                }
            }
        }
        let mut total = 0u32;
        for l in set_bits(&self.acc.live, 0, self.start.len()) {
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

    /// An order-sensitive, non-commutative fold with identity `0`: catches
    /// any deviation from arrival-order combining.
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

    /// One to four source machines of one to three chunk buckets each, over
    /// [`LOCALS`]. Half the buckets hold fewer messages than the bitmap has
    /// words, so both drain walks run.
    fn arb_sources(rng: &mut Rng) -> Vec<Vec<Vec<(u32, u64)>>> {
        let bucket = |rng: &mut Rng| {
            let len = if rng.below(2) == 0 { rng.below(3) } else { rng.below(60) };
            (0..len).map(|_| (rng.below_u32(LOCALS as u32), rng.below(1_000_000) as u64)).collect()
        };
        (0..1 + rng.below(4))
            .map(|_| (0..1 + rng.below(3)).map(|_| bucket(rng)).collect())
            .collect()
    }

    /// The `sources` argument of [`Inbox::deliver`] over nested vectors.
    fn as_sources(
        srcs: &[Vec<Vec<(u32, u64)>>],
    ) -> impl Iterator<Item = impl Iterator<Item = &[(u32, u64)]> + Clone> + Clone {
        srcs.iter().map(|s| s.iter().map(Vec::as_slice))
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

    /// However a message list is cut into buckets, folding them in order
    /// and draining yields the oracle's value for every target of the
    /// concatenation, once each. The 64-word bitmap makes short lists take
    /// the message walk and long ones the bitmap walk.
    #[test]
    fn multi_source_combine_matches_oracle_of_concatenation() {
        for_each_seed(256, |_, rng| {
            let msgs = arb_msgs(rng);
            let cuts: Vec<usize> = (0..rng.below(6)).map(|_| rng.below(201)).collect();
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(msgs.len())).collect();
            cuts.extend([0, msgs.len()]);
            cuts.sort_unstable();
            let buckets = cuts.windows(2).map(|w| &msgs[w[0]..w[1]]);
            let mut comb: Combiner<u64> = Combiner::with_capacity(64 * 64);
            for b in buckets.clone() {
                comb.fold(b, |t| t, &mut fold);
            }
            let mut out = Vec::new();
            let n = comb.drain(buckets, |l, v| out.push((l, v)));
            assert_eq!(n, out.len() as u64);
            let mut sorted = msgs.clone();
            sort_combine_in_place(&mut sorted, fold);
            out.sort_by_key(|&(t, _)| t);
            assert_eq!(out, sorted);
            assert!(comb.live.iter().all(|&w| w == 0));
            assert!(comb.val.iter().all(|&v| v == 0), "a slot kept its value");
        });
    }

    /// The inbox exposes, per vertex, exactly the slice the stable-sort
    /// oracle groups or — combining — folds per source machine and then
    /// across sources; its per-source counts are the distinct targets of
    /// each source (combining) or its bucket lengths (counting); and its
    /// bitmap names exactly the vertices with messages. Checked over two
    /// deliveries in a row, either mode each, so no slot, table entry or
    /// bit outlives its delivery.
    #[test]
    fn inbox_slices_match_stable_sort_oracle() {
        for_each_seed(256, |_, rng| {
            let rounds = [(); 2].map(|_| (arb_sources(rng), rng.below(2) == 1));
            let a = rng.below_u32(LOCALS as u32 + 1);
            let b = rng.below_u32(LOCALS as u32 + 1);
            let mut inbox: Inbox<u64> = Inbox::new(LOCALS, 0);
            for (srcs, combinable) in &rounds {
                let per_src: Vec<Vec<(u32, u64)>> = srcs.iter().map(|s| s.concat()).collect();
                let (want, counts): (Vec<Vec<u64>>, Vec<u64>) = if *combinable {
                    let folded: Vec<Vec<(u32, u64)>> = per_src
                        .iter()
                        .map(|msgs| {
                            let mut msgs = msgs.clone();
                            sort_combine_in_place(&mut msgs, fold);
                            msgs
                        })
                        .collect();
                    let mut all = folded.concat();
                    sort_combine_in_place(&mut all, fold);
                    let mut want = vec![Vec::new(); LOCALS];
                    all.iter().for_each(|&(t, v)| want[t as usize] = vec![v]);
                    (want, folded.iter().map(|f| f.len() as u64).collect())
                } else {
                    let want = reference_groups(&per_src.concat(), LOCALS);
                    (want, per_src.iter().map(|m| m.len() as u64).collect())
                };
                inbox.deliver(as_sources(srcs), *combinable, fold);
                assert_eq!(inbox.per_source(), counts.as_slice());
                assert_eq!(inbox.len(), want.iter().map(Vec::len).sum::<usize>());
                assert_eq!(inbox.is_empty(), per_src.concat().is_empty());
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
        let srcs = vec![vec![vec![(2, 10), (1, 11)], vec![(2, 12)]], vec![vec![(1, 13), (2, 14)]]];
        let mut inbox: Inbox<u64> = Inbox::new(3, 0);
        inbox.deliver(as_sources(&srcs), false, fold);
        assert_eq!(inbox.msgs_of(2), &[10, 12, 14]);
        assert_eq!(inbox.msgs_of(1), &[11, 13]);
        assert_eq!(inbox.msgs_of(0), &[] as &[u64]);
        assert_eq!(inbox.len(), 5);
        assert_eq!(inbox.per_source(), &[3, 2]);
        assert_eq!(inbox.targets(0, 3).collect::<Vec<_>>(), vec![1, 2]);
    }

    /// Two levels: a source's chunk buckets fold left to right, then the
    /// sources' results fold in machine order.
    #[test]
    fn combined_delivery_folds_per_source_then_across_sources() {
        let srcs = vec![vec![vec![(0, 3)], vec![(0, 5)]], vec![vec![(0, 7), (0, 11)]]];
        let mut inbox: Inbox<u64> = Inbox::new(1, 0);
        inbox.deliver(as_sources(&srcs), true, fold);
        assert_eq!(inbox.msgs_of(0), &[fold(fold(3, 5), fold(7, 11))]);
        assert_ne!(fold(fold(3, 5), fold(7, 11)), fold(fold(fold(3, 5), 7), 11));
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox.per_source(), &[1, 1]);
    }

    /// A range's walk is masked at both ends, wherever they fall relative
    /// to the bitmap's word boundaries.
    #[test]
    fn targets_respect_range_ends_across_words() {
        let all = vec![vec![(0..200).map(|l| (l, 0)).collect::<Vec<(u32, u64)>>()]];
        let mut inbox: Inbox<u64> = Inbox::new(200, 0);
        inbox.deliver(as_sources(&all), true, fold);
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
        let srcs: Vec<Vec<Vec<(u32, u64)>>> = (0..4)
            .map(|s| vec![(0..200).map(|i| (((s * 7 + i) % 64) as u32, i as u64)).collect()])
            .collect();
        let mut inbox: Inbox<u64> = Inbox::new(n_locals, 0);
        let mut comb: Combiner<u64> = Combiner::with_capacity(n_locals);
        let round = |inbox: &mut Inbox<u64>, comb: &mut Combiner<u64>, combinable: bool| {
            let mut bucket = srcs[0][0].clone();
            comb.combine_bucket(n_locals, |t| t, &mut bucket, fold);
            inbox.deliver(as_sources(&srcs), combinable, fold);
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
    /// at every chunk size, including chunks larger than the input, for
    /// empty, one-item, under-one-chunk and several-chunk inputs. Each
    /// bucket is allocated once, to its final length.
    #[test]
    fn par_scatter_matches_serial_at_any_chunk_size() {
        let _guard = crate::exec::TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for_each_seed(8, |_, rng| {
            // Empty, one item, under one 64-item chunk, several chunks.
            for len in [0, 1, 1 + rng.below(63), 64 * 3 + rng.below(500)] {
                let msgs: Vec<(VertexId, u64)> =
                    (0..len as u64).map(|i| (rng.below_u32(1000), i)).collect();
                for buckets in [1usize, 5, 64] {
                    let want = serial_scatter(&msgs, buckets);
                    let mut want_folded = want.clone();
                    for b in &mut want_folded {
                        sort_combine_in_place(b, fold);
                    }
                    for threads in [1usize, 4] {
                        crate::exec::set_threads(threads);
                        for chunk in [1usize, 7, 64, 1 << 30] {
                            crate::exec::set_chunk_size(chunk);
                            let case = format!(
                                "len={len} buckets={buckets} threads={threads} chunk={chunk}"
                            );
                            let mut out: Vec<Vec<(VertexId, u64)>> = vec![Vec::new(); buckets];
                            par_scatter(
                                &msgs,
                                buckets,
                                |_, &(t, m)| ((t as usize % buckets), (t, m)),
                                &mut out,
                            );
                            assert_eq!(out, want, "{case}");
                            assert!(out.iter().all(|b| b.capacity() == b.len()), "regrew: {case}");
                            // The non-commutative fold downstream agrees too.
                            for b in &mut out {
                                sort_combine_in_place(b, fold);
                            }
                            assert_eq!(out, want_folded, "folded, {case}");
                        }
                    }
                }
            }
        });
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
        let srcs = vec![vec![vec![(0, 1), (1, 2)]]];
        let none: Vec<Vec<Vec<(u32, u64)>>> = vec![vec![Vec::new()]];
        for combinable in [false, true] {
            let mut inbox: Inbox<u64> = Inbox::new(2, 0);
            inbox.deliver(as_sources(&srcs), combinable, fold);
            assert_eq!(inbox.len(), 2);
            inbox.deliver(as_sources(&none), combinable, fold);
            assert!(inbox.is_empty());
            assert_eq!(inbox.per_source(), &[0]);
            assert_eq!(inbox.msgs_of(0), &[] as &[u64]);
            assert_eq!(inbox.msgs_of(1), &[] as &[u64]);
            assert_eq!(inbox.targets(0, 2).count(), 0);
        }
    }
}
