//! The parked helper threads behind [`super::run_chunks`], and the only
//! `unsafe` in the executor.
//!
//! One dispatch: the caller takes the pool, publishes a type-erased job under
//! the state mutex, bumps the generation, wakes the helpers with one
//! `notify_all`, runs the job itself as worker 0, then withdraws the job,
//! waits until every helper that entered it has left, and releases the pool.
//! Helpers are spawned lazily, never per call, and park on a condvar between
//! jobs — they do not spin (spinning before parking bought no wallclock and
//! cost CPU when measured). They are detached and die with the process.
//!
//! Two pieces of `unsafe` make that work, both justified by the same fact —
//! `dispatch` does not return, by value or by unwinding, while a helper is
//! inside the job:
//!
//! * the job borrows the caller's stack, and its lifetime is erased so the
//!   `'static` helpers can hold it ([`Job`]);
//! * tasks and result slots are reached through base pointers ([`Base`]),
//!   each index by exactly one worker, because one atomic cursor hands every
//!   index out once.

#![deny(unsafe_op_in_unsafe_fn)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

type Panic = Box<dyn Any + Send + 'static>;

/// The published job: `job(worker)` runs the claim loop as that worker.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the pointee is `Sync`, so calling it through a shared pointer from
// another thread is sound; that it is still alive is `dispatch`'s obligation.
unsafe impl Send for Job {}

struct State {
    /// Bumped once per published job; a helper runs a generation at most once.
    generation: u64,
    /// `Some` while the dispatching caller is inside its own claim loop.
    job: Option<Job>,
    /// Helpers `0..wanted` take part in the current job, as workers `1..=wanted`.
    wanted: usize,
    /// Helpers that entered the current job and have not left it.
    active: usize,
    /// A dispatcher holds the pool, from `publish` until its `retire` ends.
    /// While it waits for its helpers, no second dispatcher may publish: a
    /// helper entering that job would keep the first waiting, and both
    /// would then wait on `idle` for one `notify_one`.
    owned: bool,
    /// Helper threads spawned so far.
    spawned: usize,
    /// First panic a helper caught in the current job.
    panic: Option<Panic>,
}

struct Pool {
    state: Mutex<State>,
    /// Helpers park here between jobs.
    work: Condvar,
    /// The dispatching caller waits here for `active == 0`.
    idle: Condvar,
}

static POOL: Pool = Pool {
    state: Mutex::new(State {
        generation: 0,
        job: None,
        wanted: 0,
        active: 0,
        owned: false,
        spawned: 0,
        panic: None,
    }),
    work: Condvar::new(),
    idle: Condvar::new(),
};

impl Pool {
    /// No task code runs under this lock and every update is a plain field
    /// store, so the state behind a poisoned guard is still valid.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Take the pool and hand `job` to `helpers` parked threads, spawning
    /// the missing ones. `false` when another caller owns the pool: nothing
    /// was published.
    fn publish(&'static self, job: Job, helpers: usize) -> bool {
        let mut st = self.lock();
        if st.owned {
            return false;
        }
        st.owned = true;
        while st.spawned < helpers {
            let id = st.spawned;
            let name = format!("graphbench-exec-{}", id + 1);
            // Out of threads: run with the helpers there are.
            if std::thread::Builder::new().name(name).spawn(move || self.helper(id)).is_err() {
                break;
            }
            st.spawned += 1;
        }
        st.generation += 1;
        st.job = Some(job);
        st.wanted = helpers;
        drop(st);
        self.work.notify_all();
        true
    }

    /// Withdraw the job, wait for every helper inside it, and release the
    /// pool.
    fn retire(&self) -> Option<Panic> {
        let mut st = self.lock();
        st.job = None;
        while st.active > 0 {
            st = self.idle.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.owned = false;
        st.panic.take()
    }

    fn helper(&self, id: usize) {
        let mut seen = 0u64;
        let mut st = self.lock();
        loop {
            let fresh = st.generation != seen;
            seen = st.generation;
            match st.job {
                Some(job) if fresh && id < st.wanted => {
                    st.active += 1;
                    drop(st);
                    // SAFETY: `active` was raised under the lock while the job
                    // was still published, and `retire` — which `dispatch`
                    // always reaches before returning — waits for it to fall
                    // again, so the closure and what it borrows are alive.
                    let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(id + 1) }));
                    st = self.lock();
                    if let Err(payload) = result {
                        st.panic.get_or_insert(payload);
                    }
                    st.active -= 1;
                    if st.active == 0 {
                        self.idle.notify_one();
                    }
                }
                _ => st = self.work.wait(st).unwrap_or_else(|e| e.into_inner()),
            }
        }
    }
}

/// Run `job(0)` here and `job(k)` on helper `k − 1` for `k` in `1..=helpers`,
/// returning once all of them have returned. A caller that finds the pool
/// taken — a dispatch nested in a task, or a second thread — runs `job(0)`
/// alone. A panic in any of them is re-raised here, after the others left.
fn dispatch(helpers: usize, job: &(dyn Fn(usize) + Sync)) {
    let ptr: *const (dyn Fn(usize) + Sync + '_) = job;
    // SAFETY: only the trait object's lifetime bound changes. Helpers call
    // through the pointer only between entering and leaving the job, and the
    // `retire` below does not return while one is inside; nothing between
    // `publish` and `retire` can return or unwind.
    let erased = Job(unsafe {
        std::mem::transmute::<
            *const (dyn Fn(usize) + Sync + '_),
            *const (dyn Fn(usize) + Sync + 'static),
        >(ptr)
    });
    let published = POOL.publish(erased, helpers);
    let mine = catch_unwind(AssertUnwindSafe(|| job(0)));
    let theirs = if published { POOL.retire() } else { None };
    if let Some(payload) = mine.err().or(theirs) {
        resume_unwind(payload);
    }
}

/// Base pointer of a slice whose elements the claim loop hands out by index.
struct Base<T>(*mut T);

// SAFETY: workers on other threads get `&mut T` to distinct elements, which
// is what `T: Send` permits; the pointer itself is never written.
unsafe impl<T: Send> Sync for Base<T> {}

impl<T> Base<T> {
    /// # Safety
    /// `i` is inside the slice this was built from, the slice outlives the
    /// returned reference, and no other reference to element `i` is live.
    unsafe fn claim<'a>(&self, i: usize) -> &'a mut T {
        // SAFETY: the caller's contract, verbatim.
        unsafe { &mut *self.0.add(i) }
    }
}

/// The parallel body of `run_chunks`: `call(worker, i, &mut tasks[i])` for
/// every `i`, on up to `t` workers (the caller is worker 0), results in index
/// order. Out of line so the serial loop in `run_chunks` stays where it was.
#[inline(never)]
pub(super) fn run<T, R, F>(tasks: &mut [T], t: usize, call: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, usize, &mut T) -> R + Sync,
{
    let n = tasks.len();
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let (task_base, slot_base) = (Base(tasks.as_mut_ptr()), Base(slots.as_mut_ptr()));
    // Relaxed: the cursor only has to hand each index out once. The state
    // mutex orders everything else — tasks are published under it, and a
    // helper's writes are released when it leaves the job under it.
    let cursor = AtomicUsize::new(0);
    let job = |worker: usize| loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        // SAFETY: `i < n`, the length of both slices; `fetch_add` returned
        // this `i` to this worker alone, so nothing else refers to `tasks[i]`
        // or `slots[i]`; both outlive `dispatch`, which does not return while
        // a worker is in this loop, and neither is touched by name until then.
        let (task, slot) = unsafe { (task_base.claim(i), slot_base.claim(i)) };
        *slot = Some(call(worker, i, task));
    };
    dispatch(t - 1, &job);
    slots.into_iter().map(|r| r.expect("every index is claimed before dispatch returns")).collect()
}
