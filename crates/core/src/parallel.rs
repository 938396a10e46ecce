//! Deterministic fork-join helpers for the search engine.
//!
//! The partitioner's hot loops — the candidate × resource-set estimate
//! grid, the greedy-growth rounds, and the configuration sweep of
//! [`crate::explore`](mod@crate::explore) — are embarrassingly parallel maps whose results
//! must nevertheless be folded *in input order* so that ties break
//! identically on every thread count. [`par_map`] provides exactly
//! that: an order-preserving parallel map over a slice built on
//! [`std::thread::scope`], with work handed out through an atomic
//! cursor and results re-assembled by index. The output is the same
//! `Vec` the sequential `iter().map()` would produce, for any thread
//! count and any scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Resolves a worker-thread count: an explicit request wins, then the
/// `COREPART_THREADS` environment variable, then the machine's
/// available parallelism.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::env::var("COREPART_THREADS")
        .ok()
        .and_then(|value| value.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to `threads` workers, returning the
/// results in input order.
///
/// `f` receives `(index, &items[index])`. With `threads <= 1` (or one
/// item) this degenerates to a plain sequential map on the calling
/// thread — the parallel path produces the identical `Vec`, so callers
/// may fold the output positionally without thinking about threading.
///
/// The item reference carries the slice's own lifetime, so `f` may
/// return values that borrow from the items (the exploration sweep
/// returns searchers borrowing their sessions).
///
/// # Panics
///
/// Re-raises a panic from `f` (workers are joined by the scope).
pub fn par_map<'a, T, U, F>(items: &'a [T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &'a T) -> U + Sync,
{
    let threads = threads.max(1).min(items.len());
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, U)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                if tx.send((i, f(i, item))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut out: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
        for (i, u) in rx {
            out[i] = Some(u);
        }
        out.into_iter()
            .map(|slot| slot.expect("worker produced every index"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_on_every_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = par_map(&items, threads, |i, &x| {
                // Skew per-item latency so completion order scrambles.
                if i % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                x * x + 1
            });
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn handles_empty_and_singleton_inputs() {
        let empty: Vec<i32> = vec![];
        assert!(par_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(par_map(&[41], 4, |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn index_argument_matches_position() {
        let items = ["a", "b", "c", "d"];
        let got = par_map(&items, 2, |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn explicit_request_wins_thread_resolution() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }
}
