//! Deterministic parallel executor: fan independent tasks across real host
//! threads.
//!
//! Every engine in this crate iterates over simulated machines — or over
//! sub-chunks of one machine's vertex range — inside its superstep /
//! iteration hot loop. Those bodies are independent by construction
//! (shared-nothing semantics), so they can run on separate host threads — as
//! long as the *results* are merged in a fixed order. A machine is a task
//! like any other: [`run_chunks`] is the only entry point.
//!
//! The contract this module enforces:
//!
//! * each task computes an independent result struct (ops, outboxes,
//!   partial accumulators, message counts);
//! * the coordinator receives results tagged with their task index and
//!   merges them in ascending index order, regardless of which thread
//!   finished first;
//! * the serial path (`threads() == 1`) runs the *identical*
//!   partial-then-merge computation, so thread count cannot change any
//!   simulated metric — `RunRecord`s are bit-for-bit identical between
//!   `GRAPHBENCH_THREADS=1` and any other value.
//!
//! Thread count resolution order: [`set_threads`] (the `Runner` field) >
//! `GRAPHBENCH_THREADS` env var > `std::thread::available_parallelism()`.
//! `1` selects the serial path, which never touches the worker pool.
//!
//! Implementation note: no thread is spawned per call. The parallel path
//! hands one type-erased claim loop to a process-wide pool of parked helper
//! threads ([`pool`], the only `unsafe` here) and the calling thread runs the
//! same loop as worker 0, so workers borrow task scratch without `Arc` or
//! cloning exactly as scoped threads would. A caller that finds the pool
//! taken — `run_chunks` nested in a task, or a second dispatching thread —
//! runs its tasks itself in index order; a panicking task is re-raised on
//! the caller once every helper has left, and the pool stays usable.

mod pool;

use graphbench_sim::hosttrace;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;
use std::time::Instant;

/// 0 = uninitialized; first use resolves the env var / core count.
static THREADS: AtomicUsize = AtomicUsize::new(0);
static WARN_BAD_THREADS: Once = Once::new();

/// 0 = uninitialized; first use resolves `GRAPHBENCH_CHUNK`.
static CHUNK: AtomicUsize = AtomicUsize::new(0);
static WARN_BAD_CHUNK: Once = Once::new();

/// Default vertices per intra-machine sub-chunk. Small enough that a 16-
/// machine run still exposes parallelism when one fragment dominates, large
/// enough that per-chunk scratch and scheduling overhead stay negligible.
/// Tunable (unlike the generator's `CHUNK_EDGES`) because every simulated
/// metric is provably chunk-size-invariant: per-chunk integer counters are
/// summed in chunk order and `agg_max` folds are order-insensitive maxima.
const DEFAULT_CHUNK: usize = 4096;

fn detected_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn resolve_threads() -> usize {
    match std::env::var("GRAPHBENCH_THREADS") {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                // A typo'd thread count silently running at core count is a
                // confusing way to lose a benchmark comparison — say so,
                // once.
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

/// Host threads the executor fans tasks across.
pub fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => {
            let t = resolve_threads();
            // A racing first call resolves the same value; last store wins
            // harmlessly.
            THREADS.store(t, Ordering::Relaxed);
            t
        }
        t => t,
    }
}

/// Override the thread count (e.g. from `Runner::threads`). `1` forces the
/// serial path. Values are clamped to at least 1.
pub fn set_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Vertices per intra-machine sub-chunk (see [`run_chunks`]), from
/// `GRAPHBENCH_CHUNK` or the default.
pub fn chunk_size() -> usize {
    match CHUNK.load(Ordering::Relaxed) {
        0 => {
            let c = resolve_chunk();
            CHUNK.store(c, Ordering::Relaxed);
            c
        }
        c => c,
    }
}

fn resolve_chunk() -> usize {
    match std::env::var("GRAPHBENCH_CHUNK") {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                WARN_BAD_CHUNK.call_once(|| {
                    eprintln!(
                        "graphbench: GRAPHBENCH_CHUNK={raw:?} is not a positive integer; \
                         using the default of {DEFAULT_CHUNK}"
                    );
                });
                DEFAULT_CHUNK
            }
        },
        Err(_) => DEFAULT_CHUNK,
    }
}

/// Override the sub-chunk size. Values are clamped to at least 1.
pub fn set_chunk_size(n: usize) {
    CHUNK.store(n.max(1), Ordering::Relaxed);
}

/// Split `weights.len()` items into contiguous spans of at most
/// `chunk_items` items and roughly `chunk_items × mean-weight` cumulative
/// weight each, returned as `(start, end)` half-open index ranges in
/// ascending order.
///
/// This is the degree-aware counterpart of `slice::chunks(chunk_items)`:
/// with uniform weights it produces the same spans, but when one item is a
/// power-law hub carrying most of a machine's edges, the hub lands in a
/// small (possibly single-item) span instead of dragging `chunk_items - 1`
/// neighbours into the same host-thread task and serializing the machine.
/// Span boundaries depend only on `(weights, chunk_items)` — never on the
/// thread count — and every simulated metric is span-boundary-invariant by
/// the same merge discipline that makes `GRAPHBENCH_CHUNK` a free tunable,
/// so this is purely a host-side load-balancing choice.
///
/// Weights are typically `1 + degree(v)` so zero-degree runs still split.
pub fn weighted_spans(weights: &[u64], chunk_items: usize) -> Vec<(usize, usize)> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let chunk_items = chunk_items.max(1);
    if chunk_items >= n {
        return vec![(0, n)];
    }
    let total: u64 = weights.iter().sum();
    // Integer mean, floored to at least 1: the target is heuristic (spans
    // only steer scheduling), so cheap arithmetic beats exact division.
    let target = (chunk_items as u64).saturating_mul((total / n as u64).max(1));
    let mut spans = Vec::with_capacity(n / chunk_items + 1);
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        acc = acc.saturating_add(w);
        // The item cap keeps light items ahead of a hub out of its span.
        if acc >= target || i + 1 - start == chunk_items {
            spans.push((start, i + 1));
            start = i + 1;
            acc = 0;
        }
    }
    if start < n {
        spans.push((start, n));
    }
    spans
}

/// Uniform chunk spans over `len` items: contiguous `(start, end)`
/// half-open ranges of `chunk_items` items each (last may be short),
/// ascending. The unweighted sibling of [`weighted_spans`] for loops whose
/// per-item cost is flat (apply loops, frontier scans, edge-list slices).
pub fn uniform_spans(len: usize, chunk_items: usize) -> Vec<(usize, usize)> {
    let chunk_items = chunk_items.max(1);
    let mut spans = Vec::with_capacity(len / chunk_items + 1);
    let mut start = 0usize;
    while start < len {
        let end = (start + chunk_items).min(len);
        spans.push((start, end));
        start = end;
    }
    spans
}

/// Run `f(task_index, &mut tasks[task_index])` for every task and collect
/// the results **in task-index order**.
///
/// A task is whatever the caller carved: a whole simulated machine, or one
/// sub-chunk of a machine's vertex range, so a fragment that dominates the
/// superstep does not serialize it. With one thread (or at most one task)
/// this is a plain serial loop. Otherwise the caller and up to
/// `min(threads(), n) − 1` parked pool helpers claim tasks *dynamically* from
/// a shared atomic counter — chunk workloads are skewed (power-law
/// fragments) and a static deal would recreate the imbalance this exists to
/// fix. Dynamic claiming is safe for determinism because each task's result
/// is written into its index slot and the caller merges slots in index
/// order; which thread ran a task is unobservable.
///
/// Host-wallclock tracing (the `--trace` Perfetto export) times each closure
/// with `Instant` pairs; the disabled fast path is one relaxed atomic load.
pub fn run_chunks<T, R, F>(tasks: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = tasks.len();
    let t = threads().min(n);
    let tracing = hosttrace::enabled();
    if t <= 1 {
        return tasks
            .iter_mut()
            .enumerate()
            .map(|(i, task)| {
                if tracing {
                    let t0 = Instant::now();
                    let r = f(i, task);
                    hosttrace::record(0, t0);
                    r
                } else {
                    f(i, task)
                }
            })
            .collect();
    }
    pool::run(tasks, t, |worker, i, task| {
        if tracing {
            let t0 = Instant::now();
            let r = f(i, task);
            hosttrace::record(worker, t0);
            r
        } else {
            f(i, task)
        }
    })
}

/// Serializes tests that flip the process-global thread count; cargo runs
/// tests concurrently, so unsynchronized `set_threads` calls would race.
#[cfg(test)]
pub(crate) static TEST_THREADS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_threads_clamps_to_one() {
        let _guard = TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(0);
        assert_eq!(threads(), 1);
        set_threads(1);
    }

    #[test]
    fn chunk_results_arrive_in_task_order() {
        // Results *and* mutated scratch come back in index order at any
        // thread count, with fewer tasks than threads and with none at all;
        // 8 → 2 → 1 → 4 leaves more helpers parked than a dispatch wants.
        let _guard = TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let fill = |i: usize| -> Vec<u64> { (0..100).map(|k| (i as u64 * 31 + k) % 97).collect() };
        for t in [1, 3, 8, 2, 1, 4] {
            set_threads(t);
            for n in [0usize, 1, 2, 5, 13, 17, 53] {
                let mut scratch: Vec<Vec<u64>> = vec![Vec::new(); n];
                let out = run_chunks(&mut scratch, |i, s| {
                    s.extend(fill(i));
                    s.iter().sum::<u64>() + i as u64 * 3
                });
                let want_scratch: Vec<Vec<u64>> = (0..n).map(fill).collect();
                let want: Vec<u64> = want_scratch
                    .iter()
                    .enumerate()
                    .map(|(i, s)| s.iter().sum::<u64>() + i as u64 * 3)
                    .collect();
                assert_eq!(out, want, "t = {t}, n = {n}");
                assert_eq!(scratch, want_scratch, "t = {t}, n = {n}");
            }
        }
        set_threads(1);
    }

    #[test]
    fn dynamic_claiming_runs_every_task_exactly_once() {
        let _guard = TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(5);
        let mut hits = vec![0u32; 200];
        run_chunks(&mut hits, |_, h| *h += 1);
        assert!(hits.iter().all(|&h| h == 1));
        set_threads(1);
    }

    // The pool is process-wide and other tests of this crate dispatch while
    // these run, so any call below may find it taken and run inline: they
    // hold either way. `tests/exec_pool.rs` has the process to itself and
    // forces helpers in.

    #[test]
    fn a_dispatch_nested_in_a_task_completes_in_index_order() {
        let _guard = TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(4);
        let mut sums = vec![0u64; 6];
        let out = run_chunks(&mut sums, |i, sum| {
            let mut inner: Vec<u64> = (0..5).map(|k| i as u64 * 10 + k).collect();
            let doubled = run_chunks(&mut inner, |j, x| {
                *x += 1;
                *x * 2 + j as u64
            });
            *sum = inner.iter().sum();
            doubled
        });
        for (i, doubled) in out.iter().enumerate() {
            let want: Vec<u64> = (0..5).map(|k| (i as u64 * 10 + k + 1) * 2 + k).collect();
            assert_eq!(doubled, &want, "outer task {i}");
            assert_eq!(sums[i], (0..5).map(|k| i as u64 * 10 + k + 1).sum::<u64>());
        }
        set_threads(1);
    }

    #[test]
    fn two_threads_dispatching_at_once_both_get_their_results() {
        use std::sync::{Arc, Barrier};
        let _guard = TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(3);
        // Task 0 of the first dispatch holds it open from before the second
        // starts until after it has returned, so the two always overlap.
        let inside = Arc::new(Barrier::new(2));
        let returned = Arc::new(Barrier::new(2));
        let second = {
            let (inside, returned) = (inside.clone(), returned.clone());
            std::thread::spawn(move || {
                inside.wait();
                let mut tasks = vec![0usize; 7];
                let out = run_chunks(&mut tasks, |i, x| {
                    *x = i + 100;
                    i * i
                });
                returned.wait();
                (tasks, out)
            })
        };
        let mut tasks = vec![0usize; 9];
        let out = run_chunks(&mut tasks, |i, x| {
            if i == 0 {
                inside.wait();
                returned.wait();
            }
            *x = i + 1;
            i * 3
        });
        assert_eq!(out, (0..9).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(tasks, (1..=9).collect::<Vec<_>>());
        let (tasks, out) = second.join().expect("second dispatcher panicked");
        assert_eq!(out, (0..7).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(tasks, (100..107).collect::<Vec<_>>());
        set_threads(1);
    }

    #[test]
    fn a_panicking_task_re_raises_on_the_caller_and_leaks_nothing() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        struct Counted<'a>(&'a AtomicUsize);
        impl Drop for Counted<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let _guard = TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(3);
        let (made, dropped) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let mut tasks = vec![(); 40];
        let payload = catch_unwind(AssertUnwindSafe(|| {
            run_chunks(&mut tasks, |i, _| {
                if i == 17 {
                    panic!("task 17");
                }
                made.fetch_add(1, Ordering::Relaxed);
                Counted(&dropped)
            })
        }))
        .err()
        .expect("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task 17"));
        assert!(made.load(Ordering::Relaxed) < 40);
        assert_eq!(dropped.load(Ordering::Relaxed), made.load(Ordering::Relaxed));
        // The pool is usable again, and results it hands back drop once.
        let out = run_chunks(&mut tasks, |_, _| Counted(&dropped));
        assert_eq!(out.len(), 40);
        drop(out);
        assert_eq!(dropped.load(Ordering::Relaxed), made.load(Ordering::Relaxed) + 40);
        set_threads(1);
    }

    #[test]
    fn twenty_thousand_dispatches_all_check_out() {
        let _guard = TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut tasks: Vec<u64> = Vec::new();
        // Miri interprets every wake-up; a few hundred rounds see each (n, T).
        let rounds = if cfg!(miri) { 280 } else { 20_000u64 };
        for round in 0..rounds {
            set_threads([2, 4, 3, 8][round as usize % 4]);
            let n = [16usize, 2, 53, 5, 1, 0, 31][round as usize % 7];
            tasks.clear();
            tasks.resize(n, round);
            let out = run_chunks(&mut tasks, |i, x| {
                *x += i as u64;
                *x ^ 0x5a
            });
            assert_eq!(out.len(), n, "round {round}");
            for (i, (&r, &x)) in out.iter().zip(&tasks).enumerate() {
                assert_eq!((x, r), (round + i as u64, x ^ 0x5a), "round {round}, task {i}");
            }
        }
        set_threads(1);
    }

    #[test]
    fn weighted_spans_cover_every_index_exactly_once() {
        for n in [0usize, 1, 2, 53, 200] {
            for chunk in [1usize, 3, 97, 4096] {
                let weights: Vec<u64> = (0..n).map(|i| 1 + (i as u64 * 7) % 13).collect();
                let spans = weighted_spans(&weights, chunk);
                let mut next = 0usize;
                for &(s, e) in &spans {
                    assert_eq!(s, next, "n={n} chunk={chunk}");
                    assert!(e > s, "empty span at n={n} chunk={chunk}");
                    next = e;
                }
                assert_eq!(next, n, "n={n} chunk={chunk}");
            }
        }
    }

    #[test]
    fn weighted_spans_match_uniform_chunks_on_uniform_weights() {
        let weights = vec![1u64; 100];
        let spans = weighted_spans(&weights, 16);
        assert_eq!(spans.len(), 7);
        assert!(spans[..6].iter().all(|&(s, e)| e - s == 16));
        assert_eq!(spans[6], (96, 100));
    }

    #[test]
    fn uniform_spans_tile_the_range() {
        assert_eq!(uniform_spans(0, 7), Vec::<(usize, usize)>::new());
        assert_eq!(uniform_spans(10, 4), vec![(0, 4), (4, 8), (8, 10)]);
        assert_eq!(uniform_spans(3, 1_000_000_000), vec![(0, 3)]);
        assert_eq!(uniform_spans(3, 0), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn weighted_spans_isolate_a_hub() {
        // One hub carrying ~all the weight must not drag a full
        // `chunk_items`-sized span of neighbours along with it.
        let mut weights = vec![1u64; 1000];
        weights[500] = 1_000_000;
        let spans = weighted_spans(&weights, 64);
        let hub_span = spans.iter().find(|&&(s, e)| s <= 500 && 500 < e).unwrap();
        assert!(hub_span.1 - hub_span.0 <= 64);
        assert_eq!(hub_span.1, 501, "span must cut immediately after the hub");
    }

    #[test]
    fn set_chunk_size_clamps_to_one() {
        let _guard = TEST_THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_chunk_size(0);
        assert_eq!(chunk_size(), 1);
        set_chunk_size(DEFAULT_CHUNK);
    }
}
