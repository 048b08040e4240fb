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
//! - Every map runs inside a thread budget. [`ThreadPool::install`]
//!   opens one of its pool's size (never more than the enclosing
//!   one's); outside any, a map opens one of the machine's size. A
//!   budget bounds every thread working on its behalf at once, the
//!   caller and nested maps included, so under `install(1)` — and for
//!   zero- or one-item maps — everything runs on the calling thread and
//!   no worker is started. [`current_num_threads`] is the budget's size,
//!   inside a map as outside it.
//! - Nested maps take part like any other: a map claims idle workers
//!   while its budget has room, so nothing is ever oversubscribed. A
//!   caller that finds no idle worker (two threads mapping at once, say
//!   `dtrd`'s connections) runs inline rather than waiting for one.
//! - A caller that has run its own share and waits for its helpers lends
//!   itself to maps nested in that map's shares — and to no other map —
//!   so when the outer map's long item lands on a worker, the caller
//!   that finished first still works on it.
//! - A panic in `f` is re-raised in the map that ran it once every
//!   participant has stopped; the workers stay parked and usable.

use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

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

/// Number of threads parallel operations will use: the size of the
/// innermost [`ThreadPool::install`] scope this thread works for (inside
/// a map too), the machine's available parallelism otherwise.
pub fn current_num_threads() -> usize {
    CTX.with(|c| c.borrow().budget.as_ref().map(|b| b.limit))
        .unwrap_or_else(machine_threads)
}

/// No lock of this module is held across user code, so a poisoned one
/// still guards consistent data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How many threads may work for one scope at once.
struct Budget {
    /// The scope's size, capped by the enclosing scope's.
    limit: usize,
    /// Threads working for this scope now; the one that opened it is
    /// counted from the start. A bound only, it publishes no data, so
    /// its updates are `Relaxed`.
    live: AtomicUsize,
    /// The enclosing scope: every thread counted here is counted there.
    parent: Option<Arc<Budget>>,
}

impl Budget {
    fn open(threads: usize, parent: Option<Arc<Budget>>) -> Arc<Budget> {
        Arc::new(Budget {
            limit: parent.as_ref().map_or(threads, |p| threads.min(p.limit)),
            live: AtomicUsize::new(1),
            parent,
        })
    }

    /// The scopes from this one outwards, up to but not including
    /// `stop` (a scope that already counts the thread in question).
    fn chain<'a>(
        self: &'a Arc<Self>,
        stop: Option<&'a Arc<Budget>>,
    ) -> impl Iterator<Item = &'a Arc<Budget>> {
        std::iter::successors(Some(self), |b| b.parent.as_ref())
            .take_while(move |b| !stop.is_some_and(|s| Arc::ptr_eq(s, b)))
    }

    /// Counts one more thread in every scope of the chain, or in none
    /// when one of them is full.
    fn take(self: &Arc<Self>, stop: Option<&Arc<Budget>>) -> bool {
        for b in self.chain(stop) {
            let room = b
                .live
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                    (n < b.limit).then_some(n + 1)
                });
            if room.is_err() {
                self.give(Some(b));
                return false;
            }
        }
        true
    }

    /// Undoes one [`Budget::take`] with the same `stop`.
    fn give(self: &Arc<Self>, stop: Option<&Arc<Budget>>) {
        for b in self.chain(stop) {
            b.live.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// What a thread works for: its innermost scope and the map whose share
/// it is running.
#[derive(Clone, Default)]
struct Ctx {
    /// `None` outside every scope: a map there opens a machine-sized one.
    budget: Option<Arc<Budget>>,
    /// A map started here is nested in this one.
    job: Option<Arc<Job>>,
}

std::thread_local! {
    static CTX: RefCell<Ctx> = const {
        RefCell::new(Ctx {
            budget: None,
            job: None,
        })
    };
    /// Where this thread, waiting out its own map, receives shares of
    /// maps nested in it.
    static SLOT: Arc<Slot> = Arc::default();
}

/// Makes a context this thread's until dropped; dropping it (also while
/// unwinding) restores the previous one.
struct Enter(Ctx);

impl Enter {
    fn new(ctx: Ctx) -> Enter {
        Enter(CTX.with(|c| c.replace(ctx)))
    }
}

impl Drop for Enter {
    fn drop(&mut self) {
        let prev = std::mem::take(&mut self.0);
        CTX.with(|c| *c.borrow_mut() = prev);
    }
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

/// A thread budget over the one global pool. Unlike upstream rayon
/// every `ThreadPool` shares the same parked workers; `install` merely
/// bounds how many threads (the caller included) work for it at once,
/// which is all this workspace needs.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// The pool's thread count.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }

    /// Runs `op` on the calling thread in a scope of the pool's size:
    /// every thread working for `op`, in maps nested at any depth, counts
    /// against it (and against the enclosing scope's).
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        let outer = CTX.with(|c| c.borrow().clone());
        let _scope = Enter::new(Ctx {
            budget: Some(Budget::open(self.threads, outer.budget)),
            job: outer.job,
        });
        op()
    }
}

/// One map's shared share loop and its completion count.
struct Job {
    /// The caller's share loop with its lifetime erased. Valid until
    /// `pending` reaches zero: the caller waits for that before its
    /// stack frame — which owns the closure — can go away.
    share: SharePtr,
    budget: Arc<Budget>,
    /// The map whose share started this one.
    parent: Option<Arc<Job>>,
    /// The thread that started the map.
    caller: Arc<Slot>,
    /// Set while the caller waits with its own share done: a map nested
    /// in this one may claim it (a compare-exchange to `false`). The
    /// share it is lent for travels through its mailbox's lock.
    lendable: AtomicBool,
    /// Helpers that have not finished their share yet. A helper's
    /// decrement (`AcqRel`) pairs with the caller's `Acquire` load, so a
    /// caller that reads zero sees everything the helpers wrote.
    pending: AtomicUsize,
    /// The first panic a helper's share raised.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

struct SharePtr(*const (dyn Fn() + Sync + 'static));

// SAFETY: the pointee is `Sync`, and `Job` never outlives the call that
// owns it in a way that lets the pointer be used (see `Job::share`).
unsafe impl Send for SharePtr {}
unsafe impl Sync for SharePtr {}

/// A share handed to a claimed thread, with how far up the scopes it
/// was counted for it.
struct Grant {
    job: Arc<Job>,
    stop: Option<Arc<Budget>>,
}

impl Grant {
    /// Runs the share working for its map, then gives back the thread's
    /// count, calls `release` and reports the share done.
    fn run(self, release: impl FnOnce()) {
        let Grant { job, stop } = self;
        {
            let _ctx = Enter::new(Ctx {
                budget: Some(Arc::clone(&job.budget)),
                job: Some(Arc::clone(&job)),
            });
            // SAFETY: the map's caller waits until this share reports
            // done below, so the closure is alive.
            let share = unsafe { &*job.share.0 };
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(share)) {
                lock(&job.panic).get_or_insert(payload);
            }
        }
        job.budget.give(stop.as_ref());
        release();
        if job.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Under the caller's lock, so it cannot miss the wake-up
            // between checking `pending` and waiting.
            let _mailbox = lock(&job.caller.mailbox);
            job.caller.wake.notify_one();
        }
    }
}

/// Where a thread receives a share to run.
#[derive(Default)]
struct Slot {
    mailbox: Mutex<Option<Grant>>,
    wake: Condvar,
}

/// A parked pool thread.
struct Worker {
    /// Free to be claimed; the claiming map clears it (an `Acquire`
    /// compare-exchange), the worker sets it again (`Release`) once it
    /// has dropped every borrow of its last share. The share itself
    /// travels through `slot`'s lock.
    idle: AtomicBool,
    slot: Slot,
}

impl Worker {
    fn run(&self) {
        loop {
            let grant = {
                let mut mailbox = lock(&self.slot.mailbox);
                loop {
                    match mailbox.take() {
                        Some(grant) => break grant,
                        None => {
                            mailbox = self
                                .slot
                                .wake
                                .wait(mailbox)
                                .unwrap_or_else(PoisonError::into_inner)
                        }
                    }
                }
            };
            // Idle before done: a caller that returns and maps again at
            // once must find this worker free, not run inline.
            grant.run(|| self.idle.store(true, Ordering::Release));
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
                    slot: Slot::default(),
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

/// Runs `share` on the calling thread and on up to `helpers` claimed
/// threads at once, and returns when every one of them has finished.
/// Claimed first are the waiting callers of the maps this one is nested
/// in, then idle pool workers while the budget has room. A panic of any
/// share is re-raised here after all of them have stopped.
fn broadcast(helpers: usize, share: &(dyn Fn() + Sync)) {
    let ctx = CTX.with(|c| c.borrow().clone());
    let budget = match &ctx.budget {
        Some(b) => Arc::clone(b),
        None => Budget::open(machine_threads(), None),
    };
    let mut claimed: Vec<(&Slot, Option<Arc<Budget>>)> = Vec::new();
    // A waiting caller is already counted in its own map's scope.
    for outer in std::iter::successors(ctx.job.as_ref(), |j| j.parent.as_ref()) {
        if claimed.len() == helpers {
            break;
        }
        if !outer.lendable.load(Ordering::Relaxed) || !budget.take(Some(&outer.budget)) {
            continue;
        }
        let free =
            outer
                .lendable
                .compare_exchange(true, false, Ordering::Acquire, Ordering::Relaxed);
        if free.is_ok() {
            claimed.push((&outer.caller, Some(Arc::clone(&outer.budget))));
        } else {
            budget.give(Some(&outer.budget));
        }
    }
    for w in workers() {
        if claimed.len() == helpers {
            break;
        }
        if !w.idle.load(Ordering::Relaxed) {
            continue;
        }
        if !budget.take(None) {
            break;
        }
        let free = w
            .idle
            .compare_exchange(true, false, Ordering::Acquire, Ordering::Relaxed);
        if free.is_ok() {
            claimed.push((&w.slot, None));
        } else {
            budget.give(None);
        }
    }
    if claimed.is_empty() {
        let _ctx = Enter::new(Ctx {
            budget: Some(budget),
            job: ctx.job,
        });
        return share();
    }
    // SAFETY: only the lifetime is erased; this function does not return
    // (or unwind) before `pending` is zero, i.e. before every helper is
    // done with the closure.
    let erased: *const (dyn Fn() + Sync + 'static) = unsafe { std::mem::transmute(share) };
    let job = Arc::new(Job {
        share: SharePtr(erased),
        budget: Arc::clone(&budget),
        parent: ctx.job.clone(),
        caller: SLOT.with(Arc::clone),
        lendable: AtomicBool::new(false),
        pending: AtomicUsize::new(claimed.len()),
        panic: Mutex::new(None),
    });
    for (slot, stop) in claimed {
        let job = Arc::clone(&job);
        *lock(&slot.mailbox) = Some(Grant { job, stop });
        slot.wake.notify_one();
    }
    let mine = {
        let _ctx = Enter::new(Ctx {
            budget: Some(budget),
            job: Some(Arc::clone(&job)),
        });
        panic::catch_unwind(AssertUnwindSafe(share))
    };
    job.wait_lending();
    if let Err(payload) = mine {
        panic::resume_unwind(payload);
    }
    let helper_panic = lock(&job.panic).take();
    if let Some(payload) = helper_panic {
        panic::resume_unwind(payload);
    }
}

impl Job {
    /// Blocks the caller until every helper is done, running meanwhile
    /// any share a map nested in this one hands it.
    fn wait_lending(&self) {
        let slot = &self.caller;
        let mut mailbox = lock(&slot.mailbox);
        self.lendable.store(true, Ordering::Release);
        loop {
            if let Some(grant) = mailbox.take() {
                drop(mailbox);
                grant.run(|| {});
                mailbox = lock(&slot.mailbox);
                self.lendable.store(true, Ordering::Release);
                continue;
            }
            // A failed withdrawal means a nested map has just claimed
            // this thread: its share is on the way.
            if self.pending.load(Ordering::Acquire) == 0
                && self
                    .lendable
                    .compare_exchange(true, false, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return;
            }
            mailbox = slot
                .wake
                .wait(mailbox)
                .unwrap_or_else(PoisonError::into_inner);
        }
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
    use std::collections::{HashMap, HashSet};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Mutex, MutexGuard, PoisonError};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    fn pool(n: usize) -> crate::ThreadPool {
        crate::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
    }

    /// The tests share one process-wide pool and several need its
    /// workers free, so they run one at a time.
    fn exclusive() -> MutexGuard<'static, ()> {
        static POOL: Mutex<()> = Mutex::new(());
        POOL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn me() -> ThreadId {
        std::thread::current().id()
    }

    /// Spins until `cond` holds or `patience` runs out; whether it held.
    fn wait_for(patience: Duration, cond: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + patience;
        while !cond() {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    const LONG: Duration = Duration::from_secs(10);

    /// A two-item map whose items each wait up to `patience` for the
    /// other to start, so a second thread that can join does: the
    /// threads the two items ran on.
    fn pair_map(patience: Duration) -> [ThreadId; 2] {
        let started = AtomicUsize::new(0);
        let ran_on: Vec<ThreadId> = [0, 1]
            .par_iter()
            .map(|_| {
                started.fetch_add(1, Ordering::SeqCst);
                wait_for(patience, || started.load(Ordering::SeqCst) == 2);
                me()
            })
            .collect();
        [ran_on[0], ran_on[1]]
    }

    /// The map whose share this thread is running.
    fn outer_job() -> std::sync::Arc<super::Job> {
        super::CTX
            .with(|c| c.borrow().job.clone())
            .expect("inside a map")
    }

    /// Runs a two-item map under `install(2)` on the caller and a pool
    /// worker. One takes a short item; the other runs `long` once the
    /// short item's participant is free again: the caller waiting for
    /// the map, or the worker parked. `long_on_caller` picks which
    /// participant runs it.
    fn short_and_long<R: Send>(long_on_caller: bool, long: impl Fn() -> R + Sync) -> R {
        let caller = me();
        let started = AtomicUsize::new(0);
        let ran: Vec<(ThreadId, Option<R>)> = pool(2).install(|| {
            [0, 1]
                .par_iter()
                .map(|_| {
                    // Neither item ends before both are taken, so each
                    // participant holds one.
                    started.fetch_add(1, Ordering::SeqCst);
                    assert!(wait_for(LONG, || started.load(Ordering::SeqCst) == 2));
                    if (me() == caller) != long_on_caller {
                        return (me(), None);
                    }
                    assert!(wait_for(LONG, || if long_on_caller {
                        super::workers()
                            .iter()
                            .all(|w| w.idle.load(Ordering::SeqCst))
                    } else {
                        outer_job().lendable.load(Ordering::SeqCst)
                    }));
                    (me(), Some(long()))
                })
                .collect()
        });
        assert_ne!(ran[0].0, ran[1].0);
        ran.into_iter()
            .find_map(|(_, r)| r)
            .expect("one item is long")
    }

    #[test]
    fn par_iter_preserves_order() {
        let _pool = exclusive();
        let xs: Vec<u64> = (0..1000).collect();
        let ys: Vec<u64> = xs.par_iter().map(|&x| x * 2).collect();
        assert_eq!(ys, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn into_par_iter_moves_values() {
        let _pool = exclusive();
        let xs: Vec<String> = (0..100).map(|i| i.to_string()).collect();
        let ys: Vec<usize> = xs.into_par_iter().map(|s| s.len()).collect();
        assert_eq!(ys.len(), 100);
        assert_eq!(ys[0], 1);
        assert_eq!(ys[99], 2);
    }

    #[test]
    fn pool_install_pins_thread_count() {
        let _pool = exclusive();
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
        let _pool = exclusive();
        let xs: Vec<u64> = (0..257).collect();
        for n in [1usize, 2, 4, 7] {
            let ys: Vec<u64> = pool(n).install(|| xs.par_iter().map(|&x| x * 3).collect());
            assert_eq!(ys, xs.iter().map(|&x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn one_item_map_runs_on_the_calling_thread() {
        let _pool = exclusive();
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
        let _pool = exclusive();
        let caller = me();
        let xs: Vec<u32> = (0..16).collect();
        let ran_on: Vec<Vec<ThreadId>> = pool(1).install(|| {
            xs.par_iter()
                .map(|_| xs.par_iter().map(|_| me()).collect())
                .collect()
        });
        assert!(ran_on.iter().flatten().all(|&t| t == caller));
        // `install(1)` inside a participant of a wider map keeps that
        // participant's nested maps on it.
        let ran_on: Vec<(ThreadId, Vec<ThreadId>)> = pool(2).install(|| {
            xs.par_iter()
                .map(|_| {
                    (
                        me(),
                        pool(1).install(|| xs.par_iter().map(|_| me()).collect()),
                    )
                })
                .collect()
        });
        for (outer, inner) in ran_on {
            assert!(inner.iter().all(|&t| t == outer));
        }
    }

    #[test]
    fn maps_run_on_a_fixed_set_of_threads() {
        let _pool = exclusive();
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
        let _pool = exclusive();
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
        let _pool = exclusive();
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
        let _pool = exclusive();
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
        let _pool = exclusive();
        assert!(pool(0).current_num_threads() >= 1);
        assert_eq!(pool(0).current_num_threads(), super::machine_threads());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let _pool = exclusive();
        let empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = empty.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let one = [7u32];
        let out: Vec<u32> = one.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![8]);
        let owned: Vec<u32> = Vec::<u32>::new().into_par_iter().map(|x| x).collect();
        assert!(owned.is_empty());
    }

    /// Threads inside a map's items at once, nested maps included.
    #[derive(Default)]
    struct Live {
        inside: Mutex<HashMap<ThreadId, usize>>,
        peak: AtomicUsize,
    }

    impl Live {
        /// Three levels of four-item maps, each item 100 µs long.
        fn nest(&self, depth: u32) {
            let _: Vec<()> = [0, 1, 2, 3]
                .par_iter()
                .map(|_| {
                    {
                        let mut inside = super::lock(&self.inside);
                        *inside.entry(me()).or_default() += 1;
                        self.peak.fetch_max(inside.len(), Ordering::SeqCst);
                    }
                    std::thread::sleep(Duration::from_micros(100));
                    if depth > 0 {
                        self.nest(depth - 1);
                    }
                    let mut inside = super::lock(&self.inside);
                    let n = inside.get_mut(&me()).expect("entered above");
                    *n -= 1;
                    if *n == 0 {
                        inside.remove(&me());
                    }
                })
                .collect();
        }
    }

    #[test]
    fn live_threads_never_exceed_the_installed_budget() {
        let _pool = exclusive();
        for n in [1, 2, 3] {
            let live = Live::default();
            pool(n).install(|| live.nest(2));
            let peak = live.peak.load(Ordering::SeqCst);
            assert!((1..=n).contains(&peak), "install({n}): {peak} threads");
        }
        // A wider scope nested in a narrower one gets the narrower size.
        for (outer, inner) in [(1, 2), (2, 8)] {
            let live = Live::default();
            let sizes: Vec<usize> = pool(outer).install(|| {
                [0, 1, 2, 3]
                    .par_iter()
                    .map(|_| {
                        pool(inner).install(|| {
                            live.nest(1);
                            crate::current_num_threads()
                        })
                    })
                    .collect()
            });
            assert_eq!(sizes, [outer; 4]);
            let peak = live.peak.load(Ordering::SeqCst);
            assert!(
                peak <= outer,
                "install({inner}) in install({outer}): {peak} threads"
            );
        }
    }

    #[test]
    fn the_long_outer_item_spreads_once_the_other_participant_is_done() {
        let _pool = exclusive();
        if super::machine_threads() < 2 {
            return;
        }
        // On the worker, the long item borrows the caller waiting for it;
        // on the caller, it claims the worker that went idle.
        for long_on_caller in [false, true] {
            let [a, b] = short_and_long(long_on_caller, || pair_map(LONG));
            assert_ne!(a, b, "long item on the caller: {long_on_caller}");
        }
    }

    #[test]
    fn a_waiting_caller_is_not_lent_to_an_unrelated_map() {
        let _pool = exclusive();
        if super::machine_threads() < 2 {
            return;
        }
        let caller = me();
        let (stranger, still_lendable, nested) = short_and_long(false, || {
            // The caller waits, lendable, for this item all along. A
            // map on another thread gives it 200 ms to join.
            let stranger = std::thread::scope(|s| {
                s.spawn(|| pair_map(Duration::from_millis(200)))
                    .join()
                    .unwrap()
            });
            let still_lendable = outer_job().lendable.load(Ordering::SeqCst);
            // The control: a map nested here does reach the caller.
            (stranger, still_lendable, pair_map(LONG))
        });
        assert!(!stranger.contains(&caller));
        assert!(still_lendable);
        assert!(nested.contains(&caller));
    }

    #[test]
    fn a_panic_in_a_borrowed_share_stays_in_its_own_map() {
        let _pool = exclusive();
        if super::machine_threads() < 2 {
            return;
        }
        let outer = crate::current_num_threads();
        let caller = me();
        let caught = short_and_long(false, || {
            std::panic::catch_unwind(|| {
                let started = AtomicUsize::new(0);
                [0, 1]
                    .par_iter()
                    .map(|_| {
                        started.fetch_add(1, Ordering::SeqCst);
                        wait_for(LONG, || started.load(Ordering::SeqCst) == 2);
                        if me() == caller {
                            panic!("borrowed share failed");
                        }
                    })
                    .collect::<Vec<()>>()
            })
            .map_err(|payload| payload.downcast_ref::<&str>().copied())
        });
        // The outer map returned normally: the panic re-raised in the
        // worker's nested map.
        assert_eq!(caught, Err(Some("borrowed share failed")));
        assert_eq!(crate::current_num_threads(), outer);
        let xs: Vec<u32> = (0..32).collect();
        let ys: Vec<u32> = pool(2).install(|| xs.par_iter().map(|&x| x + 1).collect());
        assert_eq!(ys, (1..33).collect::<Vec<u32>>());
    }
}
