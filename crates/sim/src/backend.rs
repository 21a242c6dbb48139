//! The execution-backend layer: *where* the pure client steps run.
//!
//! The driver hands a batch of [`StepTask`]s — clients scheduled to dispatch
//! at the same virtual instant, in event order — to an [`ExecutionBackend`]
//! and gets their [`ClientOutcome`]s back in input order. Because
//! [`FlAlgorithm::client_step`] is pure (`&self` plus a per-client RNG stream
//! derived only from the configuration), the backend choice is purely a
//! wall-clock knob: every backend produces bit-identical outcomes, and the
//! deterministic event schedule (never the thread schedule) fixes the order
//! in which they are absorbed.
//!
//! Two backends ship today: [`SerialBackend`] (plain in-thread loop) and
//! [`ThreadPoolBackend`] (a dedicated worker pool sized by
//! [`FlConfig::parallelism`](crate::config::FlConfig)). The trait is the seam
//! the ROADMAP's multi-backend item asked for: a process pool, a GPU queue or
//! a remote executor only has to map tasks to outcomes in order.
//!
//! The driver resolves its backend from the configuration — serial at
//! `effective_parallelism() <= 1`, a pool of that many workers above — so
//! `parallelism` is the one knob; explicit construction is available when a
//! caller wants to drive the seam directly:
//!
//! ```
//! use fedlps_sim::backend::{ExecutionBackend, SerialBackend, ThreadPoolBackend};
//!
//! assert_eq!(SerialBackend.name(), "serial");
//! let pool = ThreadPoolBackend::new(3);
//! assert_eq!((pool.name(), pool.threads()), ("thread-pool", 3));
//! ```

use fedlps_tensor::{rng_from_seed, split_seed};
use rayon::prelude::*;

use crate::algorithm::{ClientOutcome, FlAlgorithm};
use crate::config::FlConfig;
use crate::env::FlEnv;

/// One client step scheduled by the driver: the client plus the RNG stream
/// index its step draws from (a pure function of the event schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepTask {
    /// The client to step.
    pub client: usize,
    /// Stream index mixed with the run seed to derive the step's RNG.
    pub stream: u64,
}

/// Runs batches of pure client steps. Implementations must return outcomes in
/// input order and must not reorder, drop or duplicate tasks; all scheduling
/// freedom lives *inside* a batch, which is exactly the freedom purity grants.
pub trait ExecutionBackend: Send + Sync {
    /// Short name used in logs.
    fn name(&self) -> &'static str;

    /// Executes every task's `client_step` and returns the outcomes in task
    /// order.
    fn run_steps(
        &self,
        env: &FlEnv,
        algorithm: &dyn FlAlgorithm,
        round: usize,
        tasks: &[StepTask],
    ) -> Vec<ClientOutcome>;
}

/// The backend a configuration runs on: serial at one effective shard, a
/// pool of `effective_parallelism()` workers above.
pub(crate) fn for_config(config: &FlConfig) -> Box<dyn ExecutionBackend> {
    let threads = config.effective_parallelism();
    if threads > 1 {
        Box::new(ThreadPoolBackend::new(threads))
    } else {
        Box::new(SerialBackend)
    }
}

/// Sample-weighted mean deployed-model accuracy across every client,
/// evaluated on the global worker pool (evaluation dominates the simulator's
/// wall-clock cost, and unlike training it only needs `&` access to the
/// algorithm; the collected order is index order, so the reduction is
/// schedule-independent).
pub(crate) fn parallel_mean_accuracy(env: &FlEnv, algorithm: &dyn FlAlgorithm) -> f64 {
    let per_client: Vec<(f64, usize)> = (0..env.num_clients())
        .into_par_iter()
        .map(|k| {
            let stats = algorithm.evaluate_client(env, k);
            (stats.accuracy * stats.samples as f64, stats.samples)
        })
        .collect();
    let total_samples: usize = per_client.iter().map(|(_, n)| n).sum();
    if total_samples == 0 {
        return 0.0;
    }
    per_client.iter().map(|(a, _)| a).sum::<f64>() / total_samples as f64
}

/// Runs `leaf(start, chunk)` over at most `shards` disjoint contiguous
/// chunks of `out`, `start` being the chunk's offset in `out`. This is the
/// Eq. (13) aggregation walk's pass through the execution-backend seam — the
/// only file where parallelism may live (lint rule D3). Chunks never alias
/// and each leaf sees only its own, so whatever the thread schedule the
/// result is the one the serial call `leaf(0, out)` writes, provided the
/// leaf treats coordinates independently. `shards <= 1`, and any `out` too
/// short to split, stay on the calling thread.
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
    chunks
        .into_par_iter()
        .map(|(i, chunk)| leaf(i * width, chunk))
        .collect()
}

/// Runs one task on the calling thread (shared by both backends).
fn run_one(
    env: &FlEnv,
    algorithm: &dyn FlAlgorithm,
    round: usize,
    task: StepTask,
) -> ClientOutcome {
    let mut rng = rng_from_seed(split_seed(env.config.seed, task.stream));
    algorithm.client_step(env, round, task.client, &mut rng)
}

/// The trivial backend: steps run serially on the driver thread.
#[derive(Debug, Default)]
pub struct SerialBackend;

impl ExecutionBackend for SerialBackend {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn run_steps(
        &self,
        env: &FlEnv,
        algorithm: &dyn FlAlgorithm,
        round: usize,
        tasks: &[StepTask],
    ) -> Vec<ClientOutcome> {
        tasks
            .iter()
            .map(|&t| run_one(env, algorithm, round, t))
            .collect()
    }
}

/// Shards each batch across a dedicated worker pool.
#[derive(Debug)]
pub struct ThreadPoolBackend {
    pool: rayon::ThreadPool,
    threads: usize,
}

impl ThreadPoolBackend {
    /// Builds a pool of exactly `threads` workers.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        Self {
            pool: rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("rayon pool construction is infallible"),
            threads,
        }
    }

    /// Number of worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl ExecutionBackend for ThreadPoolBackend {
    fn name(&self) -> &'static str {
        "thread-pool"
    }

    fn run_steps(
        &self,
        env: &FlEnv,
        algorithm: &dyn FlAlgorithm,
        round: usize,
        tasks: &[StepTask],
    ) -> Vec<ClientOutcome> {
        self.pool.install(|| {
            tasks
                .to_vec()
                .into_par_iter()
                .map(|t| run_one(env, algorithm, round, t))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_resolves_from_parallelism() {
        let serial = FlConfig::default().with_parallelism(1);
        assert_eq!(for_config(&serial).name(), "serial");
        let sharded = FlConfig::default().with_parallelism(4);
        assert_eq!(for_config(&sharded).name(), "thread-pool");
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

    #[test]
    fn thread_pool_reports_its_size() {
        assert_eq!(ThreadPoolBackend::new(3).threads(), 3);
        assert_eq!(ThreadPoolBackend::new(0).threads(), 1, "clamps to one");
    }
}
