//! Layer probes: direct timed calls into public layer functions on the
//! workload's own architecture, data and population. Each probe reports the
//! median of its calls; a probe runs until it has made [`Budget::calls`]
//! calls or spent [`Budget::nanos`], whichever comes first (never fewer
//! than three calls).

use std::hint::black_box;
use std::sync::Arc;

use fedlps_bandit::{ClientInit, RatioController, RatioFeedback};
use fedlps_core::client::{ClientState, ClientTask, ClientUpdateOptions};
use fedlps_core::server::{aggregate_residuals_tree, Residual, StagedUpdate};
use fedlps_data::scenario::ScenarioConfig;
use fedlps_device::{DeviceFleet, HeterogeneityLevel};
use fedlps_faults::AvailabilityModel;
use fedlps_runtime::{EventKind, EventQueue};
use fedlps_select::{ClientPool, SelectionTracker};
use fedlps_sim::env::FlEnv;
use fedlps_sparse::pattern::learnable_pattern;
use fedlps_sparse::SubmodelPlan;
use fedlps_tensor::{rng_from_seed, split_seed, Density, Matrix};
use rand::Rng;

use crate::clock::now_ns;
use crate::report::Metric;
use crate::stats::median;
use crate::workloads::Workload;

/// The sparse ratio the packing probes run at (the `sparse_wide_r025` ratio).
const RATIO: f64 = 0.25;
/// Staged cohort of the merge probe: ROADMAP reference scenario 2, the
/// `round_throughput` aggregation axis.
const MERGE_COHORT: usize = 4096;
const MERGE_PARAMS: usize = 16 * 1024;
/// Events per queue-probe call.
const QUEUE_EVENTS: usize = 4096;

#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub calls: usize,
    pub nanos: u64,
}

impl Budget {
    pub const FULL: Budget = Budget {
        calls: 50,
        nanos: 200_000_000,
    };
    pub const SMOKE: Budget = Budget {
        calls: 5,
        nanos: 20_000_000,
    };

    /// Median nanoseconds per call of `f`.
    fn time<R>(self, mut f: impl FnMut() -> R) -> f64 {
        let mut samples = Vec::new();
        let begin = now_ns();
        loop {
            let start = now_ns();
            black_box(f());
            let end = now_ns();
            samples.push((end - start) as f64);
            let spent = samples.len() >= self.calls || end - begin >= self.nanos;
            if samples.len() >= 3 && spent {
                return median(&samples);
            }
        }
    }
}

/// Runs every probe. `failures` receives a message per violated invariant
/// (the merge tree must equal the serial walk bit for bit).
pub fn run(
    workload: Workload,
    seed: u64,
    env: &FlEnv,
    budget: Budget,
    failures: &mut Vec<String>,
) -> Vec<Metric> {
    let arch = &*env.arch;
    let layout = arch.unit_layout();
    let config = &env.config;
    let global = env.initial_params();
    let train = env.train_data(0);
    let mut rng = rng_from_seed(split_seed(seed, 0x9B0BE));
    let mut out = Vec::new();
    let mut push = |name, value, unit| out.push(Metric::new(name, value, unit));

    // tensor: A·Bᵀ at the widest pair of consecutive layer widths.
    let mut widths = vec![train.feature_dim()];
    widths.extend(layout.units_per_layer());
    widths.push(env.data.num_classes);
    let (k, n) = widths
        .windows(2)
        .map(|w| (w[0], w[1]))
        .max_by_key(|(k, n)| k * n)
        .expect("a model has at least an input and an output width");
    let m = config.batch_size;
    let a = Matrix::random_normal(m, k, 1.0, &mut rng);
    let b = Matrix::random_normal(n, k, 1.0, &mut rng);
    let mut c = Matrix::zeros(m, n);
    let nanos = budget.time(|| {
        c.as_mut_slice().fill(0.0);
        a.matmul_nt_into_with(&b, &mut c, Density::Dense);
        c.get(0, 0)
    });
    push(
        "tensor.matmul_nt_gflops",
        2.0 * (m * k * n) as f64 / nanos,
        "GFLOP/s",
    );

    // nn: one training batch, one client's test set.
    let batch: Vec<usize> = (0..config.batch_size.min(train.len())).collect();
    let mut grad = vec![0.0f32; global.len()];
    let nanos = budget.time(|| {
        grad.fill(0.0);
        arch.loss_and_grad(&global, train, &batch, &mut grad).loss
    });
    push("nn.loss_and_grad_us", nanos / 1e3, "us");
    let test = env.test_data(0);
    let nanos = budget.time(|| arch.evaluate(&global, test).accuracy);
    push("nn.evaluate_us", nanos / 1e3, "us");

    // sparse + nn: building the learnable pattern and compiling its plan.
    let scores: Vec<f32> = (0..layout.total_units()).map(|_| rng.gen()).collect();
    let nanos = budget.time(|| learnable_pattern(layout, &scores, RATIO));
    push("sparse.mask_build_us", nanos / 1e3, "us");
    let plan = SubmodelPlan::from_mask(layout, &learnable_pattern(layout, &scores, RATIO));
    let nanos = budget.time(|| arch.pack(plan.kept()).map(|p| p.packed_len()));
    push("nn.pack_compile_us", nanos / 1e3, "us");

    // core: one whole client update, packed and masked-dense.
    let fedlps = workload.algorithm(env);
    let algo = fedlps.config();
    let state = ClientState::default();
    let client_task_us = |packed_execution: bool| {
        let task = ClientTask {
            arch,
            global: &global,
            state: &state,
            data: train,
            options: ClientUpdateOptions {
                iterations: config.local_iterations,
                batch_size: config.batch_size,
                sgd: config.sgd,
                importance_lr: algo.importance_lr.unwrap_or(config.sgd.lr),
                mu: algo.mu,
                lambda: algo.lambda,
                pattern: algo.pattern,
                ratio: RATIO,
                round: 0,
            },
            cached_mask: None,
            packed_execution,
            cached_plan: None,
        };
        let mut rng = rng_from_seed(seed);
        budget.time(|| task.run(&mut rng).outcome.uploaded_params) / 1e3
    };
    let (packed_us, masked_us) = (client_task_us(true), client_task_us(false));
    push("core.client_task_packed_us", packed_us, "us");
    push("core.client_task_masked_us", masked_us, "us");
    push("core.packed_speedup", masked_us / packed_us, "ratio");

    // core: Eq. (13) over the staged cohort, serial walk vs two-shard tree.
    let merge_global: Vec<f32> = (0..MERGE_PARAMS)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let coords: Arc<Vec<u32>> = Arc::new((0..MERGE_PARAMS as u32).step_by(4).collect());
    let staged: Vec<StagedUpdate> = (0..MERGE_COHORT)
        .map(|_| StagedUpdate {
            weight: rng.gen_range(1..64) as f64,
            residual: Residual::Packed {
                coords: Arc::clone(&coords),
                values: coords.iter().map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
                len: MERGE_PARAMS,
            },
        })
        .collect();
    let mut merged = [Vec::new(), Vec::new()];
    for (slot, (name, shards)) in [
        ("core.merge4096_serial_ms", 1),
        ("core.merge4096_tree2_ms", 2),
    ]
    .into_iter()
    .enumerate()
    {
        let nanos = budget.time(|| {
            merged[slot].clone_from(&merge_global);
            aggregate_residuals_tree(&mut merged[slot], &staged, shards);
        });
        push(name, nanos / 1e6, "ms");
    }
    if merged[0]
        .iter()
        .map(|v| v.to_bits())
        .ne(merged[1].iter().map(|v| v.to_bits()))
    {
        failures.push("merge tree (2 shards) diverged from the serial walk".to_string());
    }
    drop(staged);

    // select: a cohort draw and an async refill against a tracker that has
    // seen one cohort, as the driver's would have.
    let population = env.num_clients();
    let mut tracker = if env.fleet.is_lazy() {
        SelectionTracker::lazy(population, env.latency_prior(), env.latency_floor())
    } else {
        SelectionTracker::new(env.expected_latencies())
    };
    let mut policy = config.selection.build();
    let mut select_rng = rng_from_seed(split_seed(seed, 0x5E1EC7));
    let first = policy.select_cohort(&tracker, 0, config.clients_per_round, &mut select_rng);
    for &client in &first {
        tracker.on_dispatch(client, 0);
        tracker.on_report(client, 1.0, tracker.expected_latency(client));
    }
    let nanos = budget
        .time(|| policy.select_cohort(&tracker, 1, config.clients_per_round, &mut select_rng));
    push("select.cohort_us", nanos / 1e3, "us");
    let in_flight = 32.min(population / 2);
    let nanos = budget.time(|| {
        let idle = ClientPool::excluding(population, 0..in_flight);
        policy.select_refill(&tracker, 1, &idle, &mut select_rng)
    });
    push("select.refill_us", nanos / 1e3, "us");

    // runtime: the event queue, a push and a pop per event.
    let times: Vec<f64> = (0..QUEUE_EVENTS).map(|_| rng.gen_range(0.0..1.0)).collect();
    let nanos = budget.time(|| {
        let mut queue = EventQueue::new();
        for (client, &time) in times.iter().enumerate() {
            queue.push(time, client, EventKind::UploadFinish);
        }
        let mut last = 0;
        while let Some(event) = queue.pop() {
            last = event.client;
        }
        last
    });
    push(
        "runtime.queue_ns_per_event",
        nanos / QUEUE_EVENTS as f64,
        "ns",
    );

    // device: first touch of a lazily derived profile (checkpoint chain
    // already built, so this is the replay from the nearest checkpoint).
    let fleet = DeviceFleet::lazy(population, HeterogeneityLevel::High, seed);
    let _ = fleet.static_profile(population - 1);
    let mut next = 0usize;
    let nanos = budget.time(|| {
        next = (next + 7919) % population;
        fleet.static_profile(next).capability
    });
    push("device.lazy_profile_cold_us", nanos / 1e3, "us");

    // faults: one availability query against the diurnal preset (the only
    // correlated model a workload uses).
    let diurnal = AvailabilityModel::from_name("diurnal").expect("shipped preset");
    let mut now = 0.0;
    let nanos = budget.time(|| {
        let mut offline = 0usize;
        for client in 0..1024 {
            now += 1e-4;
            offline += usize::from(diurnal.offline_until(config.seed, client, now).is_some());
        }
        offline
    });
    push("faults.offline_until_ns", nanos / 1024.0, "ns");

    // bandit: propose a ratio and report feedback, built as `FedLps::setup`
    // builds it. Client ids advance per call, so a million-client registry
    // takes the cold path (arm materialization with its evaluation pass)
    // every time while a 64-client fleet is warm after one lap.
    let policy = algo.ratio_policy.clone();
    let mut controller = if env.fleet.is_lazy() {
        let (arch, fleet, data) = (Arc::clone(&env.arch), env.fleet.clone(), env.data.clone());
        let global = global.clone();
        let provider = Box::new(move |k: usize| ClientInit {
            capability: fleet.static_profile(k).capability,
            initial_accuracy: arch
                .evaluate(&global, &data.clients[k % data.num_clients()].train)
                .accuracy,
        });
        RatioController::lazy(policy, population, provider, config.seed)
    } else {
        RatioController::new(
            policy,
            &env.capabilities(),
            &env.initial_training_accuracy(&global),
            config.seed,
        )
    };
    if algo.quantize_arm_space {
        controller = controller.with_shape_resolution(&layout.units_per_layer());
    }
    let mut client = 0usize;
    let nanos = budget.time(|| {
        client = (client + 1) % population;
        let ratio = controller.ratio_for(client);
        controller.report(
            client,
            RatioFeedback {
                ratio,
                local_cost: 0.01,
                accuracy: 0.5,
            },
        );
        ratio
    });
    push("bandit.propose_report_us", nanos / 1e3, "us");

    // data: generating the workload's federated dataset.
    let scenario = ScenarioConfig::small(workload.dataset())
        .with_clients(env.data.num_clients())
        .with_seed(seed);
    let nanos = budget.time(|| scenario.build().num_clients());
    push("data.scenario_build_ms", nanos / 1e6, "ms");

    out
}
