//! Regions submitted to one pool from several threads at once: a region
//! never waits for another, results match the sequential pool, and panics
//! on the inline path propagate like panics on the shared one.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use edvit_parallel::ParallelPool;

/// Generous wall-clock limit: the cross-dependency test finishes in
/// milliseconds unless regions serialize, in which case it never does.
const TIMEOUT: Duration = Duration::from_secs(20);

/// Spins until `flag` is set; `false` if `deadline` passes first.
fn wait_for(flag: &AtomicBool, deadline: Instant) -> bool {
    while !flag.load(Ordering::Acquire) {
        if Instant::now() > deadline {
            return false;
        }
        thread::yield_now();
    }
    true
}

/// A chunked kernel whose output depends on every chunk's index range.
fn kernel(pool: &ParallelPool, salt: u64) -> Vec<u64> {
    let mut out = vec![0u64; 4096];
    pool.scope_chunks(&mut out, 97, |base, chunk| {
        for (i, slot) in chunk.iter_mut().enumerate() {
            let x = (base + i) as u64 ^ salt;
            *slot = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        }
    });
    out
}

#[test]
fn concurrent_submitters_match_the_sequential_pool() {
    let pool = ParallelPool::new(2);
    let reference = ParallelPool::new(1);
    let expected: Vec<Vec<u64>> = (0..2).map(|t| kernel(&reference, t)).collect();
    let start = Barrier::new(2);
    thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|t| {
                let (pool, start, expected) = (&pool, &start, &expected);
                s.spawn(move || {
                    for _ in 0..200 {
                        start.wait();
                        assert_eq!(kernel(pool, t), expected[t as usize]);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("submitter thread");
        }
    });
}

#[test]
fn regions_waiting_on_each_other_both_finish() {
    // Every chunk of region A sets `a` and then waits for `b`; every chunk of
    // region B sets `b` and then waits for `a`. If one region had to wait for
    // the other to finish before starting, neither would ever finish.
    let pool = Arc::new(ParallelPool::new(2));
    let flags = Arc::new([AtomicBool::new(false), AtomicBool::new(false)]);
    let deadline = Instant::now() + TIMEOUT;
    let (done_tx, done_rx) = mpsc::channel();
    let handles: Vec<_> = (0..2)
        .map(|me| {
            let (pool, flags, done_tx) = (Arc::clone(&pool), Arc::clone(&flags), done_tx.clone());
            thread::spawn(move || {
                let met = AtomicUsize::new(0);
                pool.for_each_range(0..4, 1, |_| {
                    flags[me].store(true, Ordering::Release);
                    if wait_for(&flags[1 - me], deadline) {
                        met.fetch_add(1, Ordering::Relaxed);
                    }
                });
                done_tx.send(me).expect("main thread listening");
                met.into_inner()
            })
        })
        .collect();
    for _ in 0..2 {
        done_rx
            .recv_timeout(TIMEOUT)
            .expect("a region waited on another region");
    }
    for handle in handles {
        assert_eq!(handle.join().expect("submitter thread"), 4);
    }
}

#[test]
fn panic_on_the_inline_path_propagates_and_the_pool_recovers() {
    let pool = Arc::new(ParallelPool::new(2));
    let holding = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let deadline = Instant::now() + TIMEOUT;

    // Thread A's region holds the workers until released.
    let holder = {
        let (pool, holding, release) = (
            Arc::clone(&pool),
            Arc::clone(&holding),
            Arc::clone(&release),
        );
        thread::spawn(move || {
            let covered = AtomicUsize::new(0);
            pool.for_each_range(0..64, 1, |r| {
                holding.store(true, Ordering::Release);
                assert!(wait_for(&release, deadline), "holder never released");
                covered.fetch_add(r.len(), Ordering::Relaxed);
            });
            covered.into_inner()
        })
    };
    assert!(wait_for(&holding, deadline), "holder region never started");

    // Another region is in flight, so this one runs inline on this thread.
    let caller = thread::current().id();
    let inline_chunks = AtomicUsize::new(0);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.for_each_range(0..100, 1, |r| {
            assert_eq!(thread::current().id(), caller, "chunk left the caller");
            inline_chunks.fetch_add(1, Ordering::Relaxed);
            if r.contains(&50) {
                panic!("boom");
            }
        });
    }));
    assert!(result.is_err(), "inline chunk panic was swallowed");
    // Like the shared path, the other chunks still ran.
    assert_eq!(inline_chunks.load(Ordering::Relaxed), 8);

    release.store(true, Ordering::Release);
    assert_eq!(holder.join().expect("holder thread"), 64);

    // The pool is usable afterwards.
    let hits = AtomicUsize::new(0);
    pool.for_each_range(0..10, 1, |r| {
        hits.fetch_add(r.len(), Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 10);
    assert_eq!(kernel(&pool, 3), kernel(&ParallelPool::new(1), 3));
}
