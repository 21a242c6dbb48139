//! The one place the simulator runs work on more than one thread.
//!
//! [`FlAlgorithm::client_step`] is pure (`&self` plus a per-client RNG
//! stream derived only from the configuration), evaluation only reads the
//! algorithm, and the Eq. (13) aggregation walk treats coordinates
//! independently. So every parallel pass in the simulator is an ordered map
//! over independent items, and `par_map` is the only primitive: the thread
//! count is a wall-clock knob, never a result knob. Lint rule D3 confines
//! `thread::scope` (and any rayon-style API) to this file.
//!
//! Each call site passes its own thread count:
//!
//! * client steps (the driver's dispatch batches) use
//!   [`FlConfig::effective_parallelism`](crate::config::FlConfig::effective_parallelism);
//! * the evaluation sweep (`parallel_mean_accuracy`) uses every available
//!   core, whatever `parallelism` says;
//! * [`for_each_chunk_mut`] splits its slice into `shards` chunks and runs
//!   them over every available core.
//!
//! ```
//! use fedlps_sim::backend::for_each_chunk_mut;
//!
//! let mut out = vec![0usize; 10];
//! for_each_chunk_mut(&mut out, 3, |start, chunk| {
//!     for (i, slot) in chunk.iter_mut().enumerate() {
//!         *slot = start + i;
//!     }
//! });
//! assert_eq!(out, (0..10).collect::<Vec<_>>());
//! ```

use std::panic::resume_unwind;

use crate::algorithm::FlAlgorithm;
use crate::env::FlEnv;

/// Maps `f` over `items` on up to `threads` scoped threads and returns the
/// results in input order. The items are cut into contiguous chunks of
/// `ceil(n / min(threads, n))`, one thread per chunk; at `threads <= 1` or
/// `n <= 1` everything runs inline on the calling thread. A panicking item
/// propagates its panic to the caller.
pub(crate) fn par_map<T: Send, R: Send>(
    threads: usize,
    items: Vec<T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let width = n.div_ceil(threads.min(n));
    let f = &f;
    let mut items = items.into_iter();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..n.div_ceil(width))
            .map(|_| {
                let chunk: Vec<T> = items.by_ref().take(width).collect();
                scope.spawn(move || chunk.into_iter().map(f).collect::<Vec<R>>())
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    })
}

/// The machine's core count (1 when it cannot be queried).
fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sample-weighted mean deployed-model accuracy across every client,
/// evaluated on every available core (unlike training it only needs `&`
/// access to the algorithm; the results come back in client order, so the
/// reduction is schedule-independent). Personal deployments unchanged since
/// the last sweep are served from the round skeleton's memo, so on the
/// every-round ConvNet workload (`perf`'s `curves_cnn_eval`) a sweep costs
/// about as much as the round's client steps, and on the training-heavy
/// workloads a small fraction of them; `perf` reports the split as
/// `core.evaluate_busy_s` against `core.client_step_busy_s`.
pub(crate) fn parallel_mean_accuracy(env: &FlEnv, algorithm: &dyn FlAlgorithm) -> f64 {
    let clients: Vec<usize> = (0..env.num_clients()).collect();
    let per_client = par_map(available_cores(), clients, |k| {
        let stats = algorithm.evaluate_client(env, k);
        (stats.accuracy * stats.samples as f64, stats.samples)
    });
    let total_samples: usize = per_client.iter().map(|(_, n)| n).sum();
    if total_samples == 0 {
        return 0.0;
    }
    per_client.iter().map(|(a, _)| a).sum::<f64>() / total_samples as f64
}

/// Runs `leaf(start, chunk)` over at most `shards` disjoint contiguous
/// chunks of `out`, `start` being the chunk's offset in `out`, on every
/// available core. This is the Eq. (13) aggregation walk's way onto
/// `par_map`. Chunks never alias and each leaf sees only its own, so
/// whatever the thread schedule the result is the one the serial call
/// `leaf(0, out)` writes, provided the leaf treats coordinates
/// independently. `shards <= 1`, and any `out` too short to split, stay on
/// the calling thread.
pub fn for_each_chunk_mut<T, F>(out: &mut [T], shards: usize, leaf: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Send + Sync,
{
    if shards <= 1 || out.len() <= 1 {
        return leaf(0, out);
    }
    let width = out.len().div_ceil(shards);
    let chunks: Vec<(usize, &mut [T])> = out.chunks_mut(width).enumerate().collect();
    par_map(available_cores(), chunks, |(i, chunk)| {
        leaf(i * width, chunk)
    });
}

#[cfg(test)]
mod tests {
    use std::thread::{self, ThreadId};

    use super::*;

    // Order preservation is pinned by the crate-level tests in `lib.rs`.

    #[test]
    fn par_map_runs_inline_below_two_threads_or_items() {
        let caller = thread::current().id();
        for (threads, n) in [(0usize, 5usize), (1, 5), (4, 0), (4, 1), (64, 1)] {
            let ids = par_map(threads, vec![(); n], |()| thread::current().id());
            assert!(
                ids.iter().all(|&id| id == caller),
                "threads {threads}, n {n}"
            );
        }
    }

    #[test]
    fn par_map_runs_one_thread_per_contiguous_chunk() {
        let caller = thread::current().id();
        for (threads, n) in [(2usize, 2usize), (3, 7), (3, 1000), (64, 7)] {
            let ids: Vec<ThreadId> = par_map(threads, vec![(); n], |()| thread::current().id());
            assert!(!ids.contains(&caller), "the caller only waits");
            // One run of equal ids per chunk; a thread id showing up in two
            // runs would mean a non-contiguous chunk.
            let mut runs = ids;
            runs.dedup();
            for (i, id) in runs.iter().enumerate() {
                assert!(!runs[..i].contains(id), "threads {threads}, n {n}");
            }
            assert!(
                runs.len() > 1 && runs.len() <= threads.min(n),
                "threads {threads}, n {n}: {} workers",
                runs.len()
            );
        }
    }

    #[test]
    #[should_panic(expected = "item 5 fails")]
    fn par_map_propagates_a_panicking_item() {
        par_map(3, (0..9).collect(), |x: usize| {
            assert_ne!(x, 5, "item 5 fails");
            x
        });
    }

    #[test]
    fn chunks_are_disjoint_cover_the_slice_and_know_their_offset() {
        for len in [0usize, 1, 2, 7, 64] {
            for shards in [0usize, 1, 2, 3, 64, 200] {
                let mut out = vec![0usize; len];
                for_each_chunk_mut(&mut out, shards, |start, chunk| {
                    for (i, slot) in chunk.iter_mut().enumerate() {
                        *slot += start + i + 1;
                    }
                });
                let expected: Vec<usize> = (1..=len).collect();
                assert_eq!(out, expected, "len {len}, shards {shards}");
            }
        }
    }
}
