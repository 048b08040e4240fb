//! Minimal API-compatible shim for the parts of `rayon` this workspace
//! uses: `par_iter()` on slices / `Vec`s with `map(...).collect::<Vec<_>>()`,
//! `current_num_threads`, and [`ThreadPoolBuilder`] → [`ThreadPool::install`]
//! for an explicit worker count (the portfolio orchestrator's
//! `--workers N`).
//!
//! # One persistent pool
//!
//! Like upstream rayon, the shim keeps one global pool of parked worker
//! threads — `available_parallelism() − 1` of them, started on the first
//! map that wants a second participant — instead of spawning scoped
//! threads per call. A map wakes idle workers, runs the first share on
//! the calling thread itself, and returns once every participant is
//! done. Waking a parked worker and joining it costs about 11 µs on a
//! two-core x86 VM, where spawning and joining a scoped thread per call
//! cost 37–42 µs — as much as a whole five-candidate batch of the
//! incremental engine at 20 nodes.
//!
//! - Participants pull indices from one shared atomic counter (good load
//!   balance when item costs vary wildly, e.g. portfolio search arms),
//!   and results are reassembled in input order, so `collect` is
//!   deterministic and order-preserving exactly like rayon's indexed
//!   parallel iterators. Owned-item maps run on the same primitive.
//! - At most [`current_num_threads`] threads take part: the installed
//!   pool's size inside [`ThreadPool::install`], the machine's otherwise
//!   (read once). Under `install(1)` — and for zero- or one-item maps —
//!   everything runs on the calling thread and no worker is started.
//! - Inside a map every participant, the caller included, sees one
//!   thread, so nested maps run inline instead of oversubscribing.
//! - A caller that finds no idle worker (two threads mapping at once,
//!   say `dtrd`'s connections) runs inline rather than waiting for one.
//! - A panic in `f` is re-raised in the caller once every participant
//!   has stopped; the workers stay parked and usable.

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

std::thread_local! {
    /// Thread cap installed on this thread by [`ThreadPool::install`],
    /// or `Some(1)` while the thread takes part in a map; `None` means
    /// the machine's count.
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The machine's available parallelism, asked once (it may read a
/// cgroup file, which a hot path must not pay per call).
fn machine_threads() -> usize {
    static MACHINE: OnceLock<usize> = OnceLock::new();
    *MACHINE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Number of threads parallel operations will use: the installed pool's
/// size inside [`ThreadPool::install`], 1 inside a parallel map, the
/// machine's available parallelism otherwise.
pub fn current_num_threads() -> usize {
    POOL_THREADS.with(Cell::get).unwrap_or_else(machine_threads)
}

/// Sets this thread's cap for the guard's lifetime; dropping it (also
/// while unwinding) restores the previous one.
struct Cap(Option<usize>);

impl Cap {
    fn set(threads: usize) -> Cap {
        Cap(POOL_THREADS.with(|c| c.replace(Some(threads))))
    }
}

impl Drop for Cap {
    fn drop(&mut self) {
        POOL_THREADS.with(|c| c.set(self.0));
    }
}

/// No lock of this module is held across user code, so a poisoned one
/// still guards consistent data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Error building a [`ThreadPool`] (the shim never actually fails; the
/// type exists for rayon API compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a [`ThreadPool`] with an explicit worker count.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with the default (machine) worker count.
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Sets the worker count; `0` means "use the machine default", as in
    /// upstream rayon.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool (infallible in the shim).
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = match self.num_threads {
            0 => machine_threads(),
            n => n,
        };
        Ok(ThreadPool { threads })
    }
}

/// A thread-count cap over the one global pool. Unlike upstream rayon
/// every `ThreadPool` shares the same parked workers; `install` merely
/// bounds how many threads (the caller included) a map may use, which is
/// all this workspace needs.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// The pool's thread count.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }

    /// Runs `op` with parallel operations on this thread capped at the
    /// pool's thread count. The closure runs on the calling thread.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        let _cap = Cap::set(self.threads);
        op()
    }
}

/// One map's shared share loop and its completion count.
struct Job {
    /// The caller's share loop with its lifetime erased. Valid until
    /// `pending` reaches zero: the caller waits for that before its
    /// stack frame — which owns the closure — can go away.
    share: SharePtr,
    /// Helpers that have not finished their share yet.
    pending: Mutex<usize>,
    finished: Condvar,
    /// The first panic a helper's share raised.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

struct SharePtr(*const (dyn Fn() + Sync + 'static));

// SAFETY: the pointee is `Sync`, and `Job` never outlives the call that
// owns it in a way that lets the pointer be used (see `Job::share`).
unsafe impl Send for SharePtr {}
unsafe impl Sync for SharePtr {}

/// A parked pool thread.
struct Worker {
    /// Free to be claimed; the claiming caller clears it (an `Acquire`
    /// compare-exchange), the worker sets it again (`Release`) once it
    /// has dropped every borrow of its last share. The job itself
    /// travels through `mailbox`'s lock.
    idle: AtomicBool,
    mailbox: Mutex<Option<Arc<Job>>>,
    wake: Condvar,
}

impl Worker {
    fn run(&self) {
        POOL_THREADS.with(|c| c.set(Some(1)));
        loop {
            let job = {
                let mut mailbox = lock(&self.mailbox);
                loop {
                    match mailbox.take() {
                        Some(job) => break job,
                        None => {
                            mailbox = self
                                .wake
                                .wait(mailbox)
                                .unwrap_or_else(PoisonError::into_inner)
                        }
                    }
                }
            };
            // SAFETY: the caller is blocked in `broadcast` until this
            // share reports done below, so the closure is alive.
            let share = unsafe { &*job.share.0 };
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(share)) {
                lock(&job.panic).get_or_insert(payload);
            }
            // Idle before done: a caller that returns and maps again at
            // once must find this worker free, not run inline.
            self.idle.store(true, Ordering::Release);
            let mut pending = lock(&job.pending);
            *pending -= 1;
            if *pending == 0 {
                job.finished.notify_one();
            }
        }
    }
}

/// The global pool: `machine_threads() − 1` workers, spawned on first
/// use. Like upstream rayon's global pool they are never joined: they
/// live as long as the process, and no panic of user code reaches their
/// loop (each share runs under `catch_unwind`).
fn workers() -> &'static [Arc<Worker>] {
    static POOL: OnceLock<Vec<Arc<Worker>>> = OnceLock::new();
    POOL.get_or_init(|| {
        (1..machine_threads())
            .filter_map(|i| {
                let worker = Arc::new(Worker {
                    idle: AtomicBool::new(true),
                    mailbox: Mutex::new(None),
                    wake: Condvar::new(),
                });
                let parked = Arc::clone(&worker);
                std::thread::Builder::new()
                    .name(format!("rayon-shim-{i}"))
                    .spawn(move || parked.run())
                    .ok()
                    .map(|_| worker)
            })
            .collect()
    })
}

/// Runs `share` on the calling thread and on up to `helpers` idle pool
/// workers at once, and returns when every one of them has finished.
/// Each participant runs with a thread cap of 1. A panic of any share is
/// re-raised here after all of them have stopped.
fn broadcast(helpers: usize, share: &(dyn Fn() + Sync)) {
    let mut claimed: Vec<&Worker> = Vec::new();
    for w in workers() {
        if claimed.len() == helpers {
            break;
        }
        let free = w
            .idle
            .compare_exchange(true, false, Ordering::Acquire, Ordering::Relaxed);
        if free.is_ok() {
            claimed.push(w);
        }
    }
    let _cap = Cap::set(1);
    if claimed.is_empty() {
        return share();
    }
    // SAFETY: only the lifetime is erased; this function does not return
    // (or unwind) before `pending` is zero, i.e. before every helper is
    // done with the closure.
    let erased: *const (dyn Fn() + Sync + 'static) = unsafe { std::mem::transmute(share) };
    let job = Arc::new(Job {
        share: SharePtr(erased),
        pending: Mutex::new(claimed.len()),
        finished: Condvar::new(),
        panic: Mutex::new(None),
    });
    for w in &claimed {
        *lock(&w.mailbox) = Some(Arc::clone(&job));
        w.wake.notify_one();
    }
    let mine = panic::catch_unwind(AssertUnwindSafe(share));
    let mut pending = lock(&job.pending);
    while *pending > 0 {
        pending = job
            .finished
            .wait(pending)
            .unwrap_or_else(PoisonError::into_inner);
    }
    drop(pending);
    if let Err(payload) = mine {
        panic::resume_unwind(payload);
    }
    let helper_panic = lock(&job.panic).take();
    if let Some(payload) = helper_panic {
        panic::resume_unwind(payload);
    }
}

/// Order-preserving parallel map over a slice — the primitive everything
/// here reduces to. Participants pull indices from a shared atomic
/// queue, so unevenly expensive items balance across threads.
pub fn par_map_slice<'a, T: Sync, R: Send>(
    items: &'a [T],
    f: impl Fn(&'a T) -> R + Sync,
) -> Vec<R> {
    let threads = match items.len() {
        0 | 1 => 1,
        n => current_num_threads().min(n),
    };
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    broadcast(threads - 1, &|| {
        let mut got = Vec::new();
        loop {
            // `Relaxed`: the counter only hands out indices; the results
            // reach the caller through `done`'s lock.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            got.push((i, f(&items[i])));
        }
        lock(&done).append(&mut got);
    });
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in done.into_inner().unwrap_or_else(PoisonError::into_inner) {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|o| o.expect("work queue covers every index"))
        .collect()
}

/// `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

/// Conversion into a parallel iterator over borrowed items.
pub trait IntoParallelRefIterator<'a> {
    /// The borrowed item type.
    type Item: Sync + 'a;
    /// Parallel iterator over `&Item`.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// Conversion into a parallel iterator over owned items.
pub trait IntoParallelIterator {
    /// The owned item type.
    type Item: Send;
    /// Parallel iterator over owned items.
    fn into_par_iter(self) -> ParVec<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParVec<T> {
        ParVec { items: self }
    }
}

/// Shared combinator surface of the shim's parallel iterators.
pub trait ParallelIterator: Sized {
    /// The element type.
    type Item;

    /// Maps every element through `f` in parallel, preserving order.
    fn map<R, F>(self, f: F) -> ParMapped<R>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync;
}

/// Borrowed-items parallel iterator (`par_iter()`).
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync + 'a> ParallelIterator for ParIter<'a, T> {
    type Item = &'a T;

    fn map<R, F>(self, f: F) -> ParMapped<R>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMapped {
            results: par_map_slice(self.items, f),
        }
    }
}

/// Owned-items parallel iterator (`into_par_iter()`).
pub struct ParVec<T> {
    items: Vec<T>,
}

impl<T: Send + Sync> ParallelIterator for ParVec<T> {
    type Item = T;

    fn map<R, F>(self, f: F) -> ParMapped<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        // Each item sits in its own cell so whichever participant pulls
        // its index can move it out.
        let cells: Vec<Mutex<Option<T>>> =
            self.items.into_iter().map(Some).map(Mutex::new).collect();
        ParMapped {
            results: par_map_slice(&cells, |cell| {
                f(lock(cell).take().expect("each index is pulled once"))
            }),
        }
    }
}

/// The (already-computed) result of a parallel `map`; `collect` just
/// repackages. Keeping evaluation eager keeps the shim tiny while
/// preserving rayon's call shapes.
pub struct ParMapped<R> {
    results: Vec<R>,
}

impl<R> ParMapped<R> {
    /// Collects into a container (only `Vec<R>` is supported).
    pub fn collect<C: FromParMapped<R>>(self) -> C {
        C::from_results(self.results)
    }
}

/// Containers `ParMapped::collect` can produce.
pub trait FromParMapped<R> {
    /// Builds the container from in-order results.
    fn from_results(results: Vec<R>) -> Self;
}

impl<R> FromParMapped<R> for Vec<R> {
    fn from_results(results: Vec<R>) -> Self {
        results
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::collections::HashSet;
    use std::sync::atomic::Ordering;
    use std::thread::ThreadId;

    fn pool(n: usize) -> crate::ThreadPool {
        crate::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
    }

    #[test]
    fn par_iter_preserves_order() {
        let xs: Vec<u64> = (0..1000).collect();
        let ys: Vec<u64> = xs.par_iter().map(|&x| x * 2).collect();
        assert_eq!(ys, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn into_par_iter_moves_values() {
        let xs: Vec<String> = (0..100).map(|i| i.to_string()).collect();
        let ys: Vec<usize> = xs.into_par_iter().map(|s| s.len()).collect();
        assert_eq!(ys.len(), 100);
        assert_eq!(ys[0], 1);
        assert_eq!(ys[99], 2);
    }

    #[test]
    fn pool_install_pins_thread_count() {
        let outer = crate::current_num_threads();
        let pool3 = pool(3);
        assert_eq!(pool3.current_num_threads(), 3);
        assert_eq!(pool3.install(crate::current_num_threads), 3);
        // Nested installs see the innermost pool; unwinding restores.
        let pool2 = pool(2);
        let (inner, mid) = pool3.install(|| {
            let inner = pool2.install(crate::current_num_threads);
            (inner, crate::current_num_threads())
        });
        assert_eq!(inner, 2);
        assert_eq!(mid, 3);
        assert_eq!(crate::current_num_threads(), outer);
    }

    #[test]
    fn pool_results_are_order_preserving_and_complete() {
        let xs: Vec<u64> = (0..257).collect();
        for n in [1usize, 2, 4, 7] {
            let ys: Vec<u64> = pool(n).install(|| xs.par_iter().map(|&x| x * 3).collect());
            assert_eq!(ys, xs.iter().map(|&x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_parallelism_is_pinned_inside_workers() {
        // Inside a parallel region every participant reports 1 thread, so
        // nested par_iter calls run inline instead of oversubscribing
        // past the installed pool's bound.
        let xs: Vec<u32> = (0..8).collect();
        let inner: Vec<usize> = pool(2).install(|| {
            xs.par_iter()
                .map(|_| crate::current_num_threads())
                .collect()
        });
        assert!(inner.iter().all(|&n| n == 1), "{inner:?}");
    }

    #[test]
    fn one_item_map_runs_on_the_calling_thread() {
        // No worker is woken (and the thread count never consulted) for
        // a single item, whatever pool is installed.
        let caller = std::thread::current().id();
        let ran_on: Vec<ThreadId> = pool(4).install(|| {
            [()].par_iter()
                .map(|_| std::thread::current().id())
                .collect()
        });
        assert_eq!(ran_on, [caller]);
    }

    #[test]
    fn install_one_keeps_every_item_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let xs: Vec<u32> = (0..64).collect();
        let ran_on: Vec<ThreadId> =
            pool(1).install(|| xs.par_iter().map(|_| std::thread::current().id()).collect());
        assert!(ran_on.iter().all(|&t| t == caller));
    }

    #[test]
    fn maps_run_on_a_fixed_set_of_threads() {
        // The pool is persistent: fifty maps see no more distinct threads
        // than the caller plus the pool's workers. (Per-call spawning
        // would show a fresh thread id every time.)
        let xs: Vec<u32> = (0..16).collect();
        let mut seen = HashSet::new();
        for _ in 0..50 {
            let ids: Vec<ThreadId> =
                pool(2).install(|| xs.par_iter().map(|_| std::thread::current().id()).collect());
            seen.extend(ids);
        }
        assert!(
            seen.len() <= super::machine_threads(),
            "{} threads",
            seen.len()
        );
    }

    #[test]
    fn a_panicking_task_re_panics_in_the_caller_and_the_pool_survives() {
        let outer = crate::current_num_threads();
        let xs: Vec<u32> = (0..32).collect();
        for _ in 0..3 {
            let caught = std::panic::catch_unwind(|| {
                pool(2).install(|| {
                    xs.par_iter()
                        .map(|&x| {
                            if x == 17 {
                                panic!("task {x} failed")
                            } else {
                                x
                            }
                        })
                        .collect::<Vec<u32>>()
                })
            });
            let payload = caught.expect_err("the panic reaches the caller");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert_eq!(message, "task 17 failed");
            // The unwind restored the caller's thread cap.
            assert_eq!(crate::current_num_threads(), outer);
            let ys: Vec<u32> = pool(2).install(|| xs.par_iter().map(|&x| x + 1).collect());
            assert_eq!(ys, (1..33).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn concurrent_callers_both_get_complete_ordered_results() {
        let xs: Vec<u64> = (0..500).collect();
        // Both callers start every round together.
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let callers: Vec<_> = (0..2u64)
                .map(|k| {
                    let (xs, start) = (&xs, &start);
                    s.spawn(move || {
                        for round in 0..50u64 {
                            start.wait();
                            let ys: Vec<u64> = xs.par_iter().map(|&x| x * k + round).collect();
                            let want: Vec<u64> = xs.iter().map(|&x| x * k + round).collect();
                            assert_eq!(ys, want);
                        }
                    })
                })
                .collect();
            for c in callers {
                c.join().unwrap();
            }
        });
    }

    #[test]
    fn a_caller_that_finds_no_idle_worker_runs_inline() {
        // Hold every worker as another caller would (waiting out any
        // map another test has it in), then map: nothing to wait for,
        // so every item runs here.
        let held = super::workers();
        for w in held {
            while w
                .idle
                .compare_exchange(true, false, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                std::thread::yield_now();
            }
        }
        let caller = std::thread::current().id();
        let xs: Vec<u32> = (0..64).collect();
        let ran_on: Vec<ThreadId> =
            pool(2).install(|| xs.par_iter().map(|_| std::thread::current().id()).collect());
        for w in held {
            w.idle.store(true, Ordering::Release);
        }
        assert!(ran_on.iter().all(|&t| t == caller));
    }

    #[test]
    fn zero_threads_means_machine_default() {
        assert!(pool(0).current_num_threads() >= 1);
        assert_eq!(pool(0).current_num_threads(), super::machine_threads());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = empty.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let one = [7u32];
        let out: Vec<u32> = one.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![8]);
        let owned: Vec<u32> = Vec::<u32>::new().into_par_iter().map(|x| x).collect();
        assert!(owned.is_empty());
    }
}
