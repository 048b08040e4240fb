//! Minimal API-compatible shim for the parts of `rayon` this workspace
//! uses: `par_iter()` on slices / `Vec`s with `map(...).collect::<Vec<_>>()`,
//! `current_num_threads`, and [`ThreadPoolBuilder`] → [`ThreadPool::install`]
//! for an explicit worker count (the portfolio orchestrator's
//! `--workers N`).
//!
//! Borrowed-item maps pull indices from a shared atomic work queue (good
//! load balance when item costs vary wildly, e.g. portfolio search arms);
//! owned-item maps split into one contiguous chunk per worker. Either
//! way results are reassembled in input order, so `collect` is
//! deterministic and order-preserving exactly like rayon's indexed
//! parallel iterators. Small inputs (or single-core machines) run
//! sequentially to avoid spawn overhead.

use std::cell::Cell;
use std::fmt;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

std::thread_local! {
    /// Worker count installed by [`ThreadPool::install`] on this thread,
    /// if any.
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads parallel operations will use: the installed
/// pool's size inside [`ThreadPool::install`], the machine's available
/// parallelism otherwise.
pub fn current_num_threads() -> usize {
    POOL_THREADS.with(|c| c.get()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
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
        let threads = if self.num_threads == 0 {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.num_threads
        };
        Ok(ThreadPool { threads })
    }
}

/// A scoped worker-count override. Unlike upstream rayon the shim spawns
/// `std::thread::scope` threads per operation instead of keeping a warm
/// pool; `install` merely pins how many are used, which is all this
/// workspace needs.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// The pool's worker count.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }

    /// Runs `op` with parallel operations on this thread capped at the
    /// pool's worker count. The closure runs on the calling thread.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                POOL_THREADS.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(POOL_THREADS.with(|c| c.replace(Some(self.threads))));
        op()
    }
}

/// Order-preserving parallel map over a slice — the primitive everything
/// here reduces to. Workers pull indices from a shared atomic queue, so
/// unevenly expensive items balance across threads.
///
/// Each spawned worker pins its own thread-local worker count to 1, so
/// **nested** parallel calls inside an item run sequentially — the
/// outer level already consumes the whole allotment, and spawning
/// machine-default threads per worker would oversubscribe well past an
/// installed pool's `--workers` bound (real rayon bounds nested work by
/// running it inside the same pool).
pub fn par_map_slice<'a, T: Sync, R: Send>(
    items: &'a [T],
    f: impl Fn(&'a T) -> R + Sync,
) -> Vec<R> {
    // Length first: `current_num_threads` may ask the OS (a cgroup file
    // read), which one-item maps — a single-candidate batch, a
    // one-scenario sweep — must not pay per call.
    let threads = match items.len() {
        0 | 1 => 1,
        n => current_num_threads().min(n),
    };
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    POOL_THREADS.with(|c| c.set(Some(1)));
                    let mut got: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        got.push((i, f(&items[i])));
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("rayon-shim worker panicked") {
                out[i] = Some(r);
            }
        }
    });
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
        let taken = self.items;
        let threads = current_num_threads().min(taken.len());
        if threads <= 1 || taken.len() < 2 {
            return ParMapped {
                results: taken.into_iter().map(f).collect(),
            };
        }
        let chunk = taken.len().div_ceil(threads);
        let mut results: Vec<R> = Vec::new();
        let mut chunks: Vec<Vec<T>> = Vec::new();
        let mut rest = taken;
        while !rest.is_empty() {
            let tail = rest.split_off(rest.len().min(chunk));
            chunks.push(std::mem::replace(&mut rest, tail));
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|c| {
                    scope.spawn(|| {
                        // Same nested-parallelism pin as `par_map_slice`.
                        POOL_THREADS.with(|cell| cell.set(Some(1)));
                        c.into_iter().map(&f).collect::<Vec<R>>()
                    })
                })
                .collect();
            for h in handles {
                results.extend(h.join().expect("rayon-shim worker panicked"));
            }
        });
        ParMapped { results }
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
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        assert_eq!(pool.current_num_threads(), 3);
        assert_eq!(pool.install(crate::current_num_threads), 3);
        // Nested installs see the innermost pool; unwinding restores.
        let pool2 = crate::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let (inner, mid) = pool.install(|| {
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
            let pool = crate::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap();
            let ys: Vec<u64> = pool.install(|| xs.par_iter().map(|&x| x * 3).collect());
            assert_eq!(ys, xs.iter().map(|&x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_parallelism_is_pinned_inside_workers() {
        // Inside a parallel region, each worker reports 1 thread, so
        // nested par_iter calls run sequentially instead of
        // oversubscribing past the installed pool's bound.
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let xs: Vec<u32> = (0..8).collect();
        let inner: Vec<usize> = pool.install(|| {
            xs.par_iter()
                .map(|_| crate::current_num_threads())
                .collect()
        });
        assert!(inner.iter().all(|&n| n == 1), "{inner:?}");
    }

    #[test]
    fn one_item_map_runs_on_the_calling_thread() {
        // No worker is spawned (and the thread count never consulted)
        // for a single item, whatever pool is installed.
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let caller = std::thread::current().id();
        let ran_on: Vec<std::thread::ThreadId> = pool.install(|| {
            [()].par_iter()
                .map(|_| std::thread::current().id())
                .collect()
        });
        assert_eq!(ran_on, [caller]);
    }

    #[test]
    fn zero_threads_means_machine_default() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(0)
            .build()
            .unwrap();
        assert!(pool.current_num_threads() >= 1);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = empty.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let one = [7u32];
        let out: Vec<u32> = one.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![8]);
    }
}
