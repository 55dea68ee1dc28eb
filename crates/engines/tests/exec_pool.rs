//! `exec::run_chunks` with the worker pool to itself. Every test here holds
//! `POOL`, so no dispatch finds the pool taken and a barrier sized to the
//! worker count *forces* that many distinct threads into one job — the
//! interleavings `exec::tests` can only hope for. Std only.

use graphbench_engines::exec;
use graphbench_sim::hosttrace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Barrier, Mutex};
use std::thread;

static POOL: Mutex<()> = Mutex::new(());

/// One dispatch of `workers` tasks at `set_threads(threads)` that cannot
/// finish unless `workers` threads each hold a task; the lanes it traced.
fn lanes_of_a_full_dispatch(threads: usize, workers: usize) -> Vec<usize> {
    exec::set_threads(threads);
    hosttrace::drain();
    let all_in = Barrier::new(workers);
    exec::run_chunks(&mut vec![(); workers], |_, _| {
        all_in.wait();
    });
    let mut lanes: Vec<usize> = hosttrace::drain().iter().map(|s| s.thread).collect();
    lanes.sort_unstable();
    lanes
}

#[test]
fn traced_lanes_stay_inside_the_thread_count() {
    let _pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    hosttrace::enable();
    // The caller is lane 0 and helper k lane k + 1: exactly 0..T.
    assert_eq!(lanes_of_a_full_dispatch(3, 3), [0, 1, 2]);
    // Fewer tasks than threads, with more helpers parked than wanted.
    assert_eq!(lanes_of_a_full_dispatch(8, 8), [0, 1, 2, 3, 4, 5, 6, 7]);
    assert_eq!(lanes_of_a_full_dispatch(8, 2), [0, 1]);
    // Unforced, many tasks, seven helpers parked: still nothing at or past T.
    exec::set_threads(3);
    for _ in 0..50 {
        exec::run_chunks(&mut vec![0u64; 40], |i, x| *x = (0..200).fold(i as u64, |a, b| a ^ b));
    }
    let spans = hosttrace::drain();
    assert_eq!(spans.len(), 50 * 40);
    assert!(spans.iter().all(|s| s.thread < 3), "a span was recorded at lane >= 3");
    exec::set_threads(1);
}

#[test]
fn a_panic_on_a_helper_or_on_the_caller_reaches_the_caller() {
    let _pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    exec::set_threads(2);
    let caller = thread::current().id();
    for panic_on_caller in [false, true] {
        // Two tasks, two threads, both inside before either goes on.
        let both_in = Barrier::new(2);
        let mut tasks = vec![0u32; 2];
        let payload = catch_unwind(AssertUnwindSafe(|| {
            exec::run_chunks(&mut tasks, |_, x| {
                both_in.wait();
                if (thread::current().id() == caller) == panic_on_caller {
                    panic!("one of two");
                }
                *x = 7;
            })
        }))
        .expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"one of two"));
        // The task on the other thread ran to completion before the re-raise.
        assert_eq!(tasks.iter().filter(|&&x| x == 7).count(), 1, "{panic_on_caller}");
        // Same pool, next dispatch: both workers still answer.
        let again = Barrier::new(2);
        let out = exec::run_chunks(&mut tasks, |i, _| {
            again.wait();
            i
        });
        assert_eq!(out, [0, 1]);
    }
    exec::set_threads(1);
}
