//! # edvit-parallel
//!
//! A spawn-once scoped thread pool over `std::thread` — the data-parallel
//! substrate for the hot kernels in `edvit-tensor`, `edvit-nn` and the
//! pipeline crates. The build environment has no registry access, so this is
//! a deliberately small rayon stand-in covering exactly what the kernels
//! need:
//!
//! * [`ParallelPool::global`] — a lazily-initialized process-wide pool sized
//!   from [`std::thread::available_parallelism`], overridable with the
//!   `EDVIT_THREADS` environment variable (`EDVIT_THREADS=1` forces the
//!   deterministic sequential path, e.g. for CI).
//! * [`ParallelPool::for_each_range`] — splits an index range into chunks
//!   that the caller and the workers claim from a shared atomic counter
//!   ("work-stealing-lite": idle threads keep pulling the next unclaimed
//!   chunk, so uneven chunk costs self-balance without per-thread deques).
//! * [`ParallelPool::scope_chunks`] — the same claiming scheme over disjoint
//!   `&mut` sub-slices of a buffer, which is how kernels write their output
//!   rows without locks or unsafe code on the caller's side.
//! * [`ParallelPool::map_indexed`] — a convenience parallel map collecting
//!   one `T` per index (used for per-head attention and per-sample loops).
//!
//! Nested *or concurrent* regions run inline on their caller; a region never
//! waits for another. A region entered from inside a worker, or submitted
//! while another caller's region is in flight, runs all of its chunks on the
//! submitting thread. The outermost loop wins the threads, inner kernels stay
//! sequential, and two threads sharing the pool (say, two device forwards)
//! run side by side instead of queueing region by region. The inline path
//! runs exactly the chunks the workers would have shared, so results do not
//! depend on which path a region took.
//!
//! # Example
//!
//! ```
//! use edvit_parallel::ParallelPool;
//!
//! let pool = ParallelPool::new(4);
//! let mut out = vec![0u64; 1000];
//! pool.scope_chunks(&mut out, 128, |base, chunk| {
//!     for (i, slot) in chunk.iter_mut().enumerate() {
//!         *slot = (base + i) as u64 * 2;
//!     }
//! });
//! assert_eq!(out[999], 1998);
//! let squares = pool.map_indexed(5, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16]);
//! ```

#![deny(missing_docs)]

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Hard cap on pool size so a bogus `EDVIT_THREADS` cannot fork-bomb a box.
const MAX_THREADS: usize = 64;

thread_local! {
    /// Set while the current thread is executing chunks of a parallel region;
    /// nested regions started from such a thread run inline.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// One parallel region: a type-erased chunk runner plus the claim/completion
/// counters. Each region gets its own `Arc`, so a straggling worker that
/// wakes up late can only ever touch *this* region's counters — by the time
/// it claims, every chunk is taken and it exits without dereferencing `data`.
struct Region {
    /// Runs chunk `i`. `data` points at the caller's closure, which the
    /// caller keeps alive until `pending` hits zero.
    call: unsafe fn(*const (), usize),
    data: *const (),
    chunks: usize,
    /// Next chunk index to claim (work-stealing-lite: shared counter).
    next: AtomicUsize,
    /// Chunks not yet finished; the caller blocks until this reaches zero.
    pending: AtomicUsize,
    /// Set when a chunk panicked; the caller re-raises after joining.
    panicked: AtomicBool,
}

// SAFETY: `data` is only dereferenced while the owning caller is blocked in
// `run`, which guarantees the pointee (a `Sync` closure) outlives all use.
unsafe impl Send for Region {}
unsafe impl Sync for Region {}

impl Region {
    /// Claims and runs chunks until none remain. Returns `true` if this
    /// thread ran at least one chunk.
    fn work(&self) -> bool {
        let mut ran = false;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks {
                return ran;
            }
            ran = true;
            // SAFETY: `i < self.chunks` (guard above) and `call`/`data` were
            // produced by `erase` from a live `&G`; the submitting caller
            // blocks until `pending` hits zero, so the pointee outlives this
            // call, and distinct chunk indices touch disjoint data.
            let result = catch_unwind(AssertUnwindSafe(|| unsafe { (self.call)(self.data, i) }));
            if result.is_err() {
                self.panicked.store(true, Ordering::Release);
            }
            // Release pairs with the caller's Acquire load, making all chunk
            // writes visible before the caller observes completion.
            self.pending.fetch_sub(1, Ordering::Release);
        }
    }

    fn done(&self) -> bool {
        self.pending.load(Ordering::Acquire) == 0
    }
}

#[derive(Default)]
struct PoolState {
    region: Option<Arc<Region>>,
    generation: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers sleep here between regions.
    work_ready: Condvar,
    /// The caller sleeps here while workers drain the last chunks.
    region_done: Condvar,
}

/// A spawn-once pool of worker threads executing chunked parallel regions.
///
/// The pool owns `threads - 1` background workers; the thread that submits a
/// region always participates too, so `threads == 1` means "no workers,
/// everything runs inline on the caller" — the deterministic sequential path.
pub struct ParallelPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    /// Regions currently running, inline or shared. Only a region that finds
    /// none in flight shares the workers; any other runs inline on its
    /// caller, so regions never wait for each other and concurrent callers
    /// do not oversubscribe the cores.
    in_flight: AtomicUsize,
}

impl std::fmt::Debug for ParallelPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ParallelPool {
    /// Creates a pool that uses `threads` threads in total (the submitting
    /// thread plus `threads - 1` spawned workers). `threads` is clamped to
    /// `1..=64`.
    pub fn new(threads: usize) -> Self {
        let threads = threads.clamp(1, MAX_THREADS);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState::default()),
            work_ready: Condvar::new(),
            region_done: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("edvit-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ParallelPool {
            shared,
            workers,
            threads,
            in_flight: AtomicUsize::new(0),
        }
    }

    /// The process-wide pool, created on first use. Sized from
    /// `EDVIT_THREADS` when set (and ≥ 1), otherwise from
    /// [`std::thread::available_parallelism`].
    pub fn global() -> &'static ParallelPool {
        static GLOBAL: OnceLock<ParallelPool> = OnceLock::new();
        GLOBAL.get_or_init(|| ParallelPool::new(configured_threads()))
    }

    /// Total threads this pool can bring to bear (workers + caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `true` when the pool cannot parallelize (single thread, or the caller
    /// is already inside a parallel region and would run inline anyway).
    pub fn is_sequential(&self) -> bool {
        self.threads == 1 || IN_POOL.with(Cell::get)
    }

    /// Core submission: runs `chunks` invocations of `call(data, i)` across
    /// the pool, blocking until all complete. `call`/`data` must together
    /// form a `Sync` closure that outlives this call — guaranteed by the
    /// typed wrappers below, which keep the closure on the caller's stack.
    ///
    /// If another caller's region is in flight, every chunk runs here on the
    /// caller instead: a region never waits for another.
    fn run_region(&self, chunks: usize, call: unsafe fn(*const (), usize), data: *const ()) {
        debug_assert!(chunks > 0);
        let region = Arc::new(Region {
            call,
            data,
            chunks,
            next: AtomicUsize::new(0),
            pending: AtomicUsize::new(chunks),
            panicked: AtomicBool::new(false),
        });
        // Claim the workers without blocking: only a region entering an idle
        // pool gets them, so at most one region is ever published. Acquire
        // pairs with the Release decrement below, so this caller sees the
        // previous shared region fully retired from the slot.
        let shared = self.in_flight.fetch_add(1, Ordering::AcqRel) == 0;
        if shared {
            let mut state = lock(&self.shared.state);
            state.region = Some(Arc::clone(&region));
            state.generation = state.generation.wrapping_add(1);
            drop(state);
            self.shared.work_ready.notify_all();
        }

        // The caller claims chunks like any worker; on the inline path it
        // claims them all.
        IN_POOL.with(|flag| flag.set(true));
        region.work();
        IN_POOL.with(|flag| flag.set(false));

        if shared {
            // Wait for stragglers still draining their claimed chunks.
            let mut state = lock(&self.shared.state);
            while !region.done() {
                state = self
                    .shared
                    .region_done
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            state.region = None;
            drop(state);
        }
        self.in_flight.fetch_sub(1, Ordering::Release);
        if region.panicked.load(Ordering::Acquire) {
            panic!("a parallel region chunk panicked");
        }
    }

    /// Applies `f` to sub-ranges of `range`, in parallel. The range is split
    /// into contiguous chunks of at least `min_chunk` indices (and at most
    /// `4 × threads` chunks overall, so claiming overhead stays bounded);
    /// idle threads repeatedly claim the next unprocessed chunk.
    ///
    /// Runs inline (single chunk) when the pool is sequential, the range is
    /// small, or this is a nested call from inside another region.
    pub fn for_each_range<F>(&self, range: Range<usize>, min_chunk: usize, f: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        let len = range.len();
        if len == 0 {
            return;
        }
        let chunks = self.chunk_count(len, min_chunk);
        if chunks <= 1 {
            f(range);
            return;
        }
        let chunk_len = len.div_ceil(chunks);
        let start = range.start;
        let end = range.end;
        let runner = move |i: usize| {
            let lo = start + i * chunk_len;
            let hi = (lo + chunk_len).min(end);
            if lo < hi {
                f(lo..hi);
            }
        };
        let (call, data) = erase(&runner);
        self.run_region(chunks, call, data);
    }

    /// Splits `items` into disjoint `&mut` chunks of `chunk_size` elements
    /// and applies `f(base_index, chunk)` to each in parallel. This is the
    /// safe way for a kernel to parallelize writes: every invocation owns its
    /// sub-slice exclusively.
    pub fn scope_chunks<T, F>(&self, items: &mut [T], chunk_size: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let len = items.len();
        if len == 0 {
            return;
        }
        let chunk_size = chunk_size.clamp(1, len);
        let chunks = len.div_ceil(chunk_size);
        if chunks <= 1 || self.is_sequential() {
            for (c, chunk) in items.chunks_mut(chunk_size).enumerate() {
                f(c * chunk_size, chunk);
            }
            return;
        }
        let base_ptr = SendPtr(items.as_mut_ptr());
        let runner = move |i: usize| {
            let lo = i * chunk_size;
            let hi = (lo + chunk_size).min(len);
            // SAFETY: chunk `i` exclusively covers `items[lo..hi]`; regions
            // never overlap and `items` outlives the blocking `run_region`.
            let chunk = unsafe { std::slice::from_raw_parts_mut(base_ptr.get().add(lo), hi - lo) };
            f(lo, chunk);
        };
        let (call, data) = erase(&runner);
        self.run_region(chunks, call, data);
    }

    /// Parallel map: computes `f(i)` for `i in 0..n` and collects the results
    /// in index order.
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        self.scope_chunks(&mut slots, 1, |i, slot| {
            slot[0] = Some(f(i));
        });
        slots
            .into_iter()
            .map(|s| s.expect("map slot filled"))
            .collect()
    }

    /// How many chunks to cut `len` units of work into, respecting the
    /// per-chunk minimum.
    fn chunk_count(&self, len: usize, min_chunk: usize) -> usize {
        if self.is_sequential() {
            return 1;
        }
        let by_grain = len / min_chunk.max(1);
        // Over-partition a little so the shared-counter claiming can balance
        // uneven chunk costs across threads.
        by_grain.clamp(1, self.threads * 4)
    }
}

impl Drop for ParallelPool {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Locks a pool mutex, shrugging off poisoning: a panic inside a chunk is
/// re-raised on the submitting thread, and every invariant the mutex guards
/// (plain data plus atomics) stays consistent across that unwind.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Type-erases a chunk-runner closure into a `(fn, data)` pair for
/// [`ParallelPool::run_region`]. The returned pointer borrows `runner`, which
/// the caller keeps alive on its stack for the duration of the region.
fn erase<G: Fn(usize) + Sync>(runner: &G) -> (unsafe fn(*const (), usize), *const ()) {
    /// # Safety
    ///
    /// `data` must be the pointer `erase` derived from a `&G` that is still
    /// alive — the pool upholds this by keeping the submitting caller
    /// blocked until the region completes.
    unsafe fn call<G: Fn(usize) + Sync>(data: *const (), i: usize) {
        // SAFETY: `data` was produced from `&G` by `erase` and outlives the
        // region (the submitting caller blocks until every chunk completes).
        unsafe { (*data.cast::<G>())(i) }
    }
    (call::<G>, (runner as *const G).cast())
}

/// Raw pointer wrapper that may cross thread boundaries; soundness is
/// guaranteed by the disjoint-chunk construction in [`ParallelPool::scope_chunks`].
struct SendPtr<T>(*mut T);
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: the pointer is only dereferenced inside `scope_chunks`, where each
// worker writes a distinct `chunks[i]` slot (disjoint &mut borrows carved by
// `from_raw_parts_mut`) while the owner is blocked in the scope — no aliasing
// and no use-after-free are possible through a `SendPtr` copy.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}
impl<T> SendPtr<T> {
    fn get(self) -> *mut T {
        self.0
    }
}

fn worker_loop(shared: &Shared) {
    let mut last_generation = 0u64;
    loop {
        let region = {
            let mut state = lock(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                if state.generation != last_generation {
                    if let Some(region) = state.region.clone() {
                        last_generation = state.generation;
                        break region;
                    }
                    // Region already drained and cleared; skip this generation.
                    last_generation = state.generation;
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        IN_POOL.with(|flag| flag.set(true));
        region.work();
        IN_POOL.with(|flag| flag.set(false));
        if region.done() {
            // Wake the caller; taking the lock orders the wake after the
            // caller's wait registration.
            let _guard = lock(&shared.state);
            shared.region_done.notify_all();
        }
    }
}

/// Thread count for the global pool: `EDVIT_THREADS` when set to a positive
/// integer, otherwise the machine's available parallelism.
fn configured_threads() -> usize {
    match std::env::var("EDVIT_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n.min(MAX_THREADS),
            _ => detected_threads(),
        },
        Err(_) => detected_threads(),
    }
}

fn detected_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZero::get)
        .min(MAX_THREADS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn sequential_pool_runs_inline() {
        let pool = ParallelPool::new(1);
        assert_eq!(pool.threads(), 1);
        assert!(pool.is_sequential());
        let hits = AtomicUsize::new(0);
        pool.for_each_range(0..100, 1, |r| {
            // A single inline chunk covering the whole range.
            assert_eq!(r, 0..100);
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn for_each_range_covers_every_index_exactly_once() {
        let pool = ParallelPool::new(4);
        let covered: Mutex<Vec<Range<usize>>> = Mutex::new(Vec::new());
        pool.for_each_range(7..1003, 16, |r| {
            covered.lock().unwrap().push(r);
        });
        let mut seen = HashSet::new();
        for r in covered.lock().unwrap().iter() {
            for i in r.clone() {
                assert!(seen.insert(i), "index {i} covered twice");
            }
        }
        assert_eq!(seen.len(), 1003 - 7);
        assert!(seen.contains(&7) && seen.contains(&1002));
    }

    #[test]
    fn scope_chunks_writes_disjoint_slices() {
        let pool = ParallelPool::new(4);
        let mut out = vec![0usize; 500];
        pool.scope_chunks(&mut out, 37, |base, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot = base + i + 1;
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i + 1);
        }
    }

    #[test]
    fn map_indexed_preserves_order() {
        let pool = ParallelPool::new(3);
        let values = pool.map_indexed(64, |i| i * 3);
        assert_eq!(values.len(), 64);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn nested_regions_run_inline_without_deadlock() {
        let pool = ParallelPool::new(4);
        let total = AtomicU64::new(0);
        pool.for_each_range(0..8, 1, |outer| {
            for _ in outer {
                // Nested call: must run inline on this thread.
                ParallelPool::global().for_each_range(0..10, 1, |inner| {
                    total.fetch_add(inner.len() as u64, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 80);
    }

    #[test]
    fn pools_of_different_sizes_agree() {
        let work = |pool: &ParallelPool| -> Vec<usize> {
            let mut out = vec![0usize; 256];
            pool.scope_chunks(&mut out, 10, |base, chunk| {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = (base + i) * 7;
                }
            });
            out
        };
        let seq = work(&ParallelPool::new(1));
        let par = work(&ParallelPool::new(8));
        assert_eq!(seq, par);
    }

    #[test]
    fn chunk_panic_propagates_to_caller() {
        let pool = ParallelPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_range(0..100, 1, |r| {
                if r.contains(&50) {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool must still be usable after a panic.
        let hits = AtomicUsize::new(0);
        pool.for_each_range(0..10, 1, |r| {
            hits.fetch_add(r.len(), Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn empty_inputs_are_noops() {
        let pool = ParallelPool::new(2);
        pool.for_each_range(5..5, 4, |_| panic!("must not run"));
        let mut empty: Vec<u8> = Vec::new();
        pool.scope_chunks(&mut empty, 4, |_, _| panic!("must not run"));
        let mapped: Vec<u8> = pool.map_indexed(0, |_| panic!("must not run"));
        assert!(mapped.is_empty());
    }

    #[test]
    fn global_pool_respects_env_contract() {
        // The global pool is process-wide; we can only assert invariants.
        let pool = ParallelPool::global();
        assert!(pool.threads() >= 1);
        assert!(pool.threads() <= MAX_THREADS);
    }

    #[test]
    fn threads_clamped() {
        assert_eq!(ParallelPool::new(0).threads(), 1);
        assert_eq!(ParallelPool::new(10_000).threads(), MAX_THREADS);
    }
}
