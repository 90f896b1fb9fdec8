//! Offline shim for `rayon` in two tiers:
//!
//! * the `par_iter` / `par_iter_mut` / `par_chunks_mut` slice entry points
//!   this workspace's kernels use, returning ordinary sequential `std`
//!   iterators (semantics identical to rayon for order-independent bodies;
//!   only the speedup is absent there);
//! * the structured-concurrency core — [`scope`] and
//!   [`current_num_threads`] — implemented over `std::thread::scope`, so
//!   callers that fan work out in coarse chunks (one spawn per worker, not
//!   per item) get **real** multi-core execution with rayon's API shape.
//!
//! Code stays written in the parallel idiom so a real rayon drop-in
//! changes nothing at call sites.

use std::num::NonZeroUsize;

/// Number of worker threads a fan-out should assume: the host's available
/// parallelism (rayon reports its pool size here; the shim has no pool, so
/// the hardware limit is the honest equivalent).
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// A scope handle for spawning borrowed tasks, mirroring `rayon::Scope`.
/// Tasks run on real OS threads; [`scope`] joins them all before returning.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn a task that may borrow from outside the scope. As in rayon,
    /// the closure receives the scope so tasks can spawn further tasks.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        let inner = self.inner;
        inner.spawn(move || f(&Scope { inner }));
    }
}

/// Structured fork-join over real threads: every task spawned on the scope
/// completes before `scope` returns (panics in tasks propagate, as rayon's
/// do).
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    std::thread::scope(|s| f(&Scope { inner: s }))
}

/// The rayon-style prelude: import `*` to get the `par_*` methods.
pub mod prelude {
    /// Parallel-iterator entry points on slices (sequential fallback).
    pub trait ParallelSlice<T> {
        /// Iterate shared references ("parallel" view of `iter`).
        fn par_iter(&self) -> std::slice::Iter<'_, T>;
        /// Iterate in fixed-size chunks ("parallel" view of `chunks`).
        fn par_chunks(&self, chunk_size: usize) -> std::slice::Chunks<'_, T>;
    }

    /// Mutable parallel-iterator entry points on slices.
    pub trait ParallelSliceMut<T> {
        /// Iterate exclusive references ("parallel" view of `iter_mut`).
        fn par_iter_mut(&mut self) -> std::slice::IterMut<'_, T>;
        /// Iterate mutable fixed-size chunks ("parallel" view of
        /// `chunks_mut`).
        fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T>;
    }

    impl<T> ParallelSlice<T> for [T] {
        fn par_iter(&self) -> std::slice::Iter<'_, T> {
            self.iter()
        }
        fn par_chunks(&self, chunk_size: usize) -> std::slice::Chunks<'_, T> {
            self.chunks(chunk_size)
        }
    }

    impl<T> ParallelSliceMut<T> for [T] {
        fn par_iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
            self.iter_mut()
        }
        fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T> {
            self.chunks_mut(chunk_size)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn scope_runs_borrowed_tasks_on_threads() {
        let data: Vec<u64> = (0..1000).collect();
        let mut partials = [0u64; 4];
        super::scope(|s| {
            for (chunk, out) in data.chunks(250).zip(partials.iter_mut()) {
                s.spawn(move |_| {
                    *out = chunk.iter().sum();
                });
            }
        });
        assert_eq!(partials.iter().sum::<u64>(), 1000 * 999 / 2);
        assert!(super::current_num_threads() >= 1);
    }

    #[test]
    fn scope_spawn_nests() {
        let mut inner_ran = false;
        super::scope(|s| {
            let flag = &mut inner_ran;
            s.spawn(move |s2| {
                s2.spawn(move |_| *flag = true);
            });
        });
        assert!(inner_ran);
    }

    #[test]
    fn zip_enumerate_for_each_chain() {
        let mut a = [0.0f64; 16];
        let b: Vec<f64> = (0..16).map(f64::from).collect();
        let c: Vec<f64> = (0..16).map(|i| f64::from(i) * 0.5).collect();
        a.par_iter_mut()
            .zip(b.par_iter().zip(c.par_iter()))
            .for_each(|(ai, (bi, ci))| *ai = bi + 3.0 * ci);
        assert_eq!(a[4], 4.0 + 3.0 * 2.0);

        let mut grid = [0u32; 12];
        grid.par_chunks_mut(4).enumerate().for_each(|(row, chunk)| {
            for v in chunk {
                *v = row as u32;
            }
        });
        assert_eq!(grid, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
    }
}
