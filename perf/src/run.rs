//! One workload, start to finish, in this process: set-up, the timed
//! repetitions, the traced repetition(s), the probes, the correctness checks
//! and the metrics.
//!
//! Every repetition is timed twice: wall-clock, and user-mode CPU seconds of
//! the whole process. The end-to-end time metrics are built on the CPU
//! clock (see `README.md`, "Why CPU seconds"); the wall-clock numbers ride
//! along as `sim.*` layer metrics.
//!
//! Closed loop, one driver thread. Nothing is reset between repetitions —
//! the fig/table bins run dozens of methods per process, so in-process drift
//! (the thread-local `ScratchPool` only grows) is what users pay.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fedlps_core::FedLps;
use fedlps_sim::env::FlEnv;
use fedlps_sim::metrics::RunResult;
use fedlps_tensor::scratch::with_pool;
use serde::Value;

use crate::alloc;
use crate::clock::{now_ns, secs, user_cpu_s};
use crate::json;
use crate::probes::{self, Budget};
use crate::report::{metrics_json, Metric, Spec};
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::{self, RunTrace, Tracer};
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed repetitions should take on the reference sandbox;
    /// fixes the repetition count (see [`Workload::reps_for`]).
    pub seconds: f64,
    /// Also interleave traced and untraced repetitions (tracing overhead)
    /// and run the layer probes.
    pub trace: bool,
    /// Two repetitions, one set-up, short probes; every check still runs.
    pub smoke: bool,
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct Report {
    pub options: Options,
    pub reps: usize,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    /// Trace-, introspection- and result-derived layer metrics always; the
    /// probe metrics and `sim.trace_overhead_ratio` only with
    /// `Options::trace`.
    pub per_layer: Vec<Metric>,
    pub rep_walls_s: Vec<f64>,
    pub rep_cpu_s: Vec<f64>,
    pub spans: Value,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The contract's result line: `end_to_end` metrics untraced, `per_layer`
    /// metrics traced.
    pub fn result_line(&self) -> String {
        let metrics = if self.options.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        json::compact(&json::obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", json::uint(self.attempted)),
            ("failed", json::uint(self.failed)),
            ("metrics", metrics_json(metrics)),
        ]))
    }

    pub fn to_json(&self) -> Value {
        let o = &self.options;
        let seconds = |values: &[f64]| Value::Arr(values.iter().map(|&v| json::num(v)).collect());
        json::obj(vec![
            ("workload", json::str(o.workload.name())),
            ("seed", json::uint(o.seed)),
            ("seconds", json::num(o.seconds)),
            ("smoke", Value::Bool(o.smoke)),
            ("traced", Value::Bool(o.trace)),
            ("reps", json::uint(self.reps as u64)),
            (
                "resolved_tail_percentile",
                json::uint(u64::from(tail_percentile(self.reps))),
            ),
            ("correct", Value::Bool(self.correct())),
            ("attempted", json::uint(self.attempted)),
            ("failed", json::uint(self.failed)),
            (
                "failures",
                Value::Arr(self.failures.iter().map(|f| json::str(f)).collect()),
            ),
            ("end_to_end", metrics_json(&self.end_to_end)),
            ("per_layer", metrics_json(&self.per_layer)),
            ("rep_walls_s", seconds(&self.rep_walls_s)),
            ("rep_cpu_s", seconds(&self.rep_cpu_s)),
        ])
    }
}

/// Wall-clock and user-mode CPU seconds of one timed section.
#[derive(Debug, Clone, Copy)]
struct Timing {
    wall_s: f64,
    cpu_s: f64,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Timing) {
    let (wall, cpu) = (now_ns(), user_cpu_s());
    let out = f();
    let timing = Timing {
        wall_s: secs(wall, now_ns()),
        cpu_s: user_cpu_s() - cpu,
    };
    (out, timing)
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn scratch_idle() -> usize {
    with_pool(|pool| pool.idle())
}

/// Mean test accuracy of one shared parameter vector over the dataset's
/// shards. (`FlEnv::global_model_accuracy` walks the registered population,
/// which a tiled million-client registry cannot afford.)
fn shard_accuracy(env: &FlEnv, params: &[f32]) -> f64 {
    let (mut hits, mut samples) = (0.0, 0usize);
    for shard in &env.data.clients {
        let stats = env.arch.evaluate(params, &shard.test);
        hits += stats.accuracy * stats.samples as f64;
        samples += stats.samples;
    }
    hits / samples.max(1) as f64
}

/// The checks every repetition's result must pass; returns what failed.
fn check_result(
    workload: Workload,
    env: &FlEnv,
    initial_accuracy: f64,
    reference: &RunResult,
    result: &RunResult,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut ensure = |ok: bool, what: &str| {
        if !ok {
            failures.push(what.to_string());
        }
    };
    let bits = |r: &RunResult| {
        [
            r.final_accuracy,
            r.total_time,
            r.total_flops,
            r.total_upload_bytes,
        ]
        .map(f64::to_bits)
    };
    ensure(
        result == reference && bits(result) == bits(reference),
        "RunResult differs from the first run's",
    );
    ensure(
        result.rounds.len() == env.config.rounds,
        "rounds.len() != config.rounds",
    );
    let unit = |a: f64| a.is_finite() && (0.0..=1.0).contains(&a);
    ensure(
        unit(result.final_accuracy)
            && unit(result.best_accuracy)
            && result
                .rounds
                .iter()
                .filter_map(|r| r.mean_accuracy)
                .all(unit),
        "an accuracy is not a finite number in [0, 1]",
    );
    if workload.evaluates() {
        ensure(
            result.final_accuracy > initial_accuracy,
            "final_accuracy does not beat the untrained global model",
        );
    }
    failures
}

/// Runs `f` as one repetition: a panic or a failed check counts it as
/// failed instead of ending the process.
struct Reps<'a> {
    attempted: u64,
    failed: u64,
    failures: &'a mut Vec<String>,
}

impl Reps<'_> {
    fn attempt<R>(&mut self, label: &str, f: impl FnOnce() -> (R, Vec<String>)) -> Option<R> {
        self.attempted += 1;
        let (out, failures) = match catch_unwind(AssertUnwindSafe(f)) {
            Ok((out, failures)) => (Some(out), failures),
            Err(_) => (None, vec!["panicked".to_string()]),
        };
        if !failures.is_empty() {
            self.failed += 1;
            self.failures
                .extend(failures.into_iter().map(|f| format!("{label}: {f}")));
        }
        out
    }
}

pub fn run(options: Options) -> Report {
    let Options {
        workload,
        seed,
        seconds,
        trace: traced_mode,
        smoke,
    } = options;
    let reps = if smoke { 2 } else { workload.reps_for(seconds) };
    let mut failures = Vec::new();

    // Set-up, several times over so its median is steady: input build plus
    // one warm-up run. The first warm-up's result is the reference every
    // later run — the warm-ups on rebuilt inputs included — must reproduce
    // bit for bit. (A panic here ends the process: there is nothing to
    // measure without a reference.)
    let mut setups = Vec::new();
    let mut warm_ups = Vec::new();
    for _ in 0..if smoke { 1 } else { 3 } {
        let (warm_up, timing) = timed(|| {
            let sim = workload.build(seed);
            let result = sim.run(&mut workload.algorithm(sim.env()));
            (sim, result)
        });
        setups.push(timing);
        warm_ups.push(warm_up);
    }
    let (sim, reference) = warm_ups.remove(0);
    let env = sim.env();
    let initial_accuracy = shard_accuracy(env, &env.initial_params());
    let mut attempts = Reps {
        attempted: 0,
        failed: 0,
        failures: &mut failures,
    };
    let check =
        |result: &RunResult| check_result(workload, env, initial_accuracy, &reference, result);
    attempts.attempt("warm-up", || ((), check(&reference)));
    for (_, result) in warm_ups {
        attempts.attempt("warm-up on rebuilt inputs", || ((), check(&result)));
    }

    let bare_rep = |label: &str, attempts: &mut Reps<'_>| -> Option<Timing> {
        attempts.attempt(label, || {
            let mut algorithm = workload.algorithm(env);
            let (result, timing) = timed(|| sim.run(&mut algorithm));
            (timing, check(&result))
        })
    };

    // The layer trace: one repetition through the `Traced` decorator with
    // allocation counting on, taken right after the warm-ups so that its
    // layer times describe the same early-process regime as the median of
    // the timed repetitions that follow (late repetitions of a process that
    // keeps growing pay for fresh pages; see README, "Why CPU seconds").
    let tracer = Tracer::default();
    let traced_rep = |run_id: u64, attempts: &mut Reps<'_>| -> Option<(f64, RunResult, FedLps)> {
        attempts.attempt(&format!("traced rep {run_id}"), || {
            let ((result, algorithm), timing) =
                timed(|| tracer.run(run_id, workload.algorithm(env), |traced| sim.run(traced)));
            let found = check(&result);
            ((timing.wall_s, result, algorithm), found)
        })
    };
    let (first_traced, alloc_calls, alloc_bytes) =
        alloc::count_during(|| traced_rep(1, &mut attempts));

    // The timed repetitions: bare algorithm, tracing and counting off.
    let idle_before = scratch_idle();
    let timed_reps: Vec<Timing> = (0..reps)
        .filter_map(|i| bare_rep(&format!("rep {i}"), &mut attempts))
        .collect();
    let rep_walls_s: Vec<f64> = timed_reps.iter().map(|t| t.wall_s).collect();
    let rep_cpu_s: Vec<f64> = timed_reps.iter().map(|t| t.cpu_s).collect();
    let peak_rss_mb = peak_rss_mib();
    let idle_after = scratch_idle();

    // Tracing overhead: three untraced/traced pairs, U T · T U · U T. Every
    // later run of a growing process is a little slower, so swapping the
    // order within alternate pairs keeps that drift out of the ratio.
    let mut traced_walls = Vec::new();
    let mut untraced_walls = Vec::new();
    if traced_mode {
        for pair in 0..if smoke { 1 } else { 3 } {
            for traced_turn in [pair % 2 == 1, pair % 2 == 0] {
                if traced_turn {
                    traced_walls.extend(traced_rep(2 + pair, &mut attempts).map(|(wall, ..)| wall));
                } else {
                    untraced_walls
                        .extend(bare_rep("untraced neighbour", &mut attempts).map(|t| t.wall_s));
                }
            }
        }
    }
    let Reps {
        attempted,
        mut failed,
        ..
    } = attempts;

    let spans = tracer.spans();
    let m = Metric::new;
    let mut end_to_end = Vec::new();
    let mut per_layer = Vec::new();
    let run_trace = RunTrace::of(&spans, 1);
    if let (Some((_, result, algorithm)), Some(run)) = (&first_traced, &run_trace) {
        let before = failures.len();
        let (steps, layer, layer_failures) = layer_metrics(
            workload,
            env,
            result,
            algorithm,
            run,
            (alloc_calls, alloc_bytes),
        );
        failures.extend(layer_failures);
        per_layer = layer;
        per_layer.extend([
            m(
                "sim.final_accuracy",
                final_accuracy(workload, env, result, algorithm),
                "ratio",
            ),
            m("sim.virtual_time_s", result.total_time, "s"),
            m("sim.model_gflops", result.total_flops / 1e9, "GFLOP"),
            m(
                "sim.setup_wall_s",
                median(&setups.iter().map(|t| t.wall_s).collect::<Vec<_>>()),
                "s",
            ),
            m("sim.run_wall_s_p50", median(&rep_walls_s), "s"),
            m("sim.run_wall_s_p75", percentile(&rep_walls_s, 75.0), "s"),
            m(
                "sim.client_steps_per_s",
                steps as f64 / median(&rep_walls_s),
                "1/s",
            ),
            m(
                "sim.run_wall_drift_ratio",
                drift_ratio(&rep_walls_s),
                "ratio",
            ),
            m("tensor.scratch_idle_buffers", idle_after as f64, "count"),
            m(
                "tensor.scratch_idle_growth_per_run",
                (idle_after as f64 - idle_before as f64) / reps as f64,
                "count",
            ),
        ]);
        let cpu_p50 = median(&rep_cpu_s);
        end_to_end = vec![
            m(
                "setup_s",
                median(&setups.iter().map(|t| t.cpu_s).collect::<Vec<_>>()),
                "s",
            ),
            m("run_cpu_s_p50", cpu_p50, "s"),
            m("client_steps_per_cpu_s", steps as f64 / cpu_p50, "1/s"),
            m("peak_rss_mb", peak_rss_mb, "MiB"),
        ];
        if traced_mode {
            per_layer.push(m(
                "sim.trace_overhead_ratio",
                median(&traced_walls) / median(&untraced_walls),
                "ratio",
            ));
            let budget = if smoke { Budget::SMOKE } else { Budget::FULL };
            per_layer.extend(probes::run(workload, seed, env, budget, &mut failures));
        }
        // A failed layer check counts against the traced repetition.
        let failed_with_checks = failed + u64::from(failures.len() > before);
        per_layer.push(m(
            "sim.failed_share",
            failed_with_checks as f64 / attempted as f64,
            "ratio",
        ));
        // The emitter and the committed BENCHMARK.json must agree.
        let spec = Spec::committed();
        failures.extend(Spec::disagreements(&spec.end_to_end, &end_to_end));
        if traced_mode {
            failures.extend(Spec::disagreements(&spec.per_layer, &per_layer));
        }
        failed += u64::from(failures.len() > before);
    }

    Report {
        options,
        reps,
        attempted,
        failed,
        failures,
        end_to_end,
        per_layer,
        rep_walls_s,
        rep_cpu_s,
        spans: trace::spans_json(&spans),
    }
}

/// `RunResult::final_accuracy` where the run evaluates; on the registry,
/// which never does (`eval_every: 0`, the one O(population) sweep), the
/// final global model's accuracy over the 64 data shards instead.
fn final_accuracy(workload: Workload, env: &FlEnv, result: &RunResult, algorithm: &FedLps) -> f64 {
    if workload.evaluates() {
        result.final_accuracy
    } else {
        shard_accuracy(env, algorithm.global_params())
    }
}

/// median(last k repetitions) / median(first k), k = 10 or half the sample.
fn drift_ratio(walls: &[f64]) -> f64 {
    if walls.len() < 2 {
        return 1.0;
    }
    let k = 10.min(walls.len() / 2);
    median(&walls[walls.len() - k..]) / median(&walls[..k])
}

/// The metrics read off the first traced repetition, its result and its
/// algorithm, plus the conservation checks that need the seam counts.
/// Returns the client-step count, the metrics and the failed checks.
fn layer_metrics(
    workload: Workload,
    env: &FlEnv,
    result: &RunResult,
    algorithm: &FedLps,
    run: &RunTrace<'_>,
    (alloc_calls, alloc_bytes): (u64, u64),
) -> (usize, Vec<Metric>, Vec<String>) {
    let steps = run.layer(&[trace::CLIENT_STEP]);
    let evals = run.layer(&[trace::EVALUATE]);
    let absorbs = run.layer(&[trace::ABSORB, trace::ABSORB_STALE]);
    let aggregates = run.layer(&[trace::AGGREGATE]);
    let setup = run.layer(&[trace::SETUP]);
    let s = |ns: u64| ns as f64 / 1e9;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dropped: u64 = result.drop_causes().iter().map(|(_, n)| n).sum();
    let cache = algorithm.mask_cache();
    let m = Metric::new;

    let metrics = vec![
        m("core.client_step_busy_s", s(steps.busy_ns), "s"),
        m("core.client_step_wall_s", s(steps.wall_ns), "s"),
        m("core.client_step_count", steps.count as f64, "count"),
        m(
            "core.client_step_us_p50",
            percentile(&steps.durations_ns, 50.0) / 1e3,
            "us",
        ),
        m(
            "core.client_step_us_p90",
            percentile(&steps.durations_ns, 90.0) / 1e3,
            "us",
        ),
        m(
            "core.ns_per_model_flop",
            ratio(steps.busy_ns as f64, result.total_flops),
            "ns/FLOP",
        ),
        m("core.setup_s", s(setup.busy_ns), "s"),
        m("core.evaluate_busy_s", s(evals.busy_ns), "s"),
        m("core.evaluate_wall_s", s(evals.wall_ns), "s"),
        m("core.evaluate_count", evals.count as f64, "count"),
        // Evaluation always runs on the global pool: one thread per core.
        m(
            "sim.eval_pool_efficiency",
            ratio(
                evals.busy_ns as f64,
                evals.wall_ns as f64 * host_threads as f64,
            ),
            "ratio",
        ),
        m("core.absorb_s", s(absorbs.busy_ns), "s"),
        m("core.absorb_count", absorbs.count as f64, "count"),
        m("core.aggregate_s", s(aggregates.busy_ns), "s"),
        m("core.aggregate_count", aggregates.count as f64, "count"),
        m("sim.traced_run_wall_s", s(run.root_ns()), "s"),
        m("sim.driver_self_s", s(run.root_self_ns()), "s"),
        m(
            "sim.driver_self_us_per_dispatch",
            ratio(run.root_self_ns() as f64 / 1e3, steps.count as f64),
            "us",
        ),
        m(
            "sim.backend_efficiency",
            ratio(
                steps.busy_ns as f64,
                steps.wall_ns as f64 * env.config.effective_parallelism() as f64,
            ),
            "ratio",
        ),
        m(
            "tensor.alloc_calls_per_step",
            ratio(alloc_calls as f64, steps.count as f64),
            "count",
        ),
        m(
            "tensor.alloc_kb_per_step",
            ratio(alloc_bytes as f64 / 1024.0, steps.count as f64),
            "KiB",
        ),
        m(
            "sparse.mask_cache_hit_rate",
            result.mask_cache_hit_rate(),
            "ratio",
        ),
        m(
            "sparse.mask_cache_entries",
            cache.map_or(0, |c| c.len()) as f64,
            "count",
        ),
        m(
            "bandit.mean_sparse_ratio",
            result.mean_sparse_ratio(),
            "ratio",
        ),
        m(
            "bandit.materialized_arms",
            algorithm.materialized_arms() as f64,
            "count",
        ),
        m(
            "device.materialized_profiles",
            env.fleet.materialized_profiles() as f64,
            "count",
        ),
        m(
            "core.materialized_clients",
            algorithm.materialized_clients() as f64,
            "count",
        ),
        m("sim.absorbed_reports", absorbs.count as f64, "count"),
        m("sim.dropped_reports", dropped as f64, "count"),
        m(
            "faults.retry_attempts",
            result.total_retry_attempts() as f64,
            "count",
        ),
        m(
            "faults.unavailable_dispatches",
            result.total_unavailable_dispatches() as f64,
            "count",
        ),
    ];
    let mut failures = Vec::new();

    // Accounting conserves: every dispatched step was absorbed or dropped
    // for a recorded cause; the async pipeline additionally ends with its
    // in-flight set unresolved.
    let resolved = absorbs.count as u64 + dropped;
    let residue = steps.count as i64 - resolved as i64;
    let in_flight_cap = if env.config.round_mode.is_cohort() {
        0
    } else {
        env.config.clients_per_round as i64
    };
    if !(0..=in_flight_cap).contains(&residue) {
        failures.push(format!(
            "accounting: {} steps != {} absorbed + {dropped} dropped (residue {residue}, allowed 0..={in_flight_cap})",
            steps.count, absorbs.count
        ));
    }
    // O(active) memory: no per-client store outgrows the dispatch count.
    if workload == Workload::Registry1mCold {
        for (store, size) in [
            ("fleet profiles", env.fleet.materialized_profiles()),
            ("bandit arms", algorithm.materialized_arms()),
            ("client states", algorithm.materialized_clients()),
            ("mask-cache entries", cache.map_or(0, |c| c.len())),
        ] {
            if size > steps.count {
                failures.push(format!(
                    "{store}: {size} materialized for {} dispatches",
                    steps.count
                ));
            }
        }
    }
    (steps.count, metrics, failures)
}
