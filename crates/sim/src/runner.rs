//! The federation simulator's public entry point.
//!
//! [`Simulator::run`] drives an [`FlAlgorithm`] through the event-driven
//! round loop of the configured [`RoundMode`](crate::config::RoundMode) and
//! collects the per-round metric trace. The loop itself lives in layered
//! modules behind this facade:
//!
//! * `crate::driver` (private) — the single scheduler-driven loop all three
//!   round modes share;
//! * `fedlps_select` (via [`FlConfig::selection`](crate::config::FlConfig)) —
//!   pluggable client-selection policies consulted for cohorts, deadline
//!   over-selection and async refills;
//! * [`crate::backend`] — the ordered parallel map the pure client steps
//!   run on, inline or over `effective_parallelism()` threads;
//! * `crate::absorb` (private) — the mode-agnostic absorption/metrics
//!   accounting, and the one module that calls `absorb_update` /
//!   `absorb_update_stale`;
//! * `crate::topology` (private) — the zone-tier overlay: timing, traffic
//!   and drops, never the absorbed arithmetic.
//!
//! Every combination of {round mode × selection policy × parallelism}
//! produces bit-identical metric traces for a given seed: client steps are
//! pure, RNG streams are keyed by configuration, and absorption order is
//! fixed by the event schedule — never by the thread schedule. The matrix
//! test at the bottom of this file pins that contract at the sim-crate
//! level; `tests/determinism_matrix.rs` in the facade pins it for FedLPS
//! across every topology, availability model and fault schedule. The other
//! tests here are the tier-1 checks of the round-mode, availability, fault
//! and quorum mechanisms, on a minimal FedAvg (the retry accounting is
//! cross-checked against the closed-form `FaultPlan`); the
//! `straggler_rounds` and `diurnal_fleet` examples assert the same effects
//! on FedLPS at 64 clients.

use crate::algorithm::FlAlgorithm;
use crate::driver::Driver;
use crate::env::FlEnv;
use crate::metrics::RunResult;

/// Drives an [`FlAlgorithm`] through the round loop of the configured
/// [`RoundMode`](crate::config::RoundMode) and collects the per-round metric
/// trace.
#[derive(Debug)]
pub struct Simulator {
    env: FlEnv,
}

impl Simulator {
    /// Creates a simulator over the given environment.
    ///
    /// This is the one choke point every run passes through, so the whole
    /// configuration is validated here — bad knobs fail immediately with one
    /// actionable message instead of asserting deep inside the round loop
    /// (or worse, silently misbehaving).
    ///
    /// # Panics
    ///
    /// Panics with the offending knob's name and an explanation if
    /// [`FlConfig::validate`](crate::config::FlConfig::validate) rejects the
    /// configuration.
    pub fn new(env: FlEnv) -> Self {
        if let Err(e) = env.config.validate() {
            panic!("{e}");
        }
        Self { env }
    }

    /// Read access to the environment (used by examples and the benchmark).
    pub fn env(&self) -> &FlEnv {
        &self.env
    }

    /// Runs the full federation under the configured round mode and returns
    /// the metric trace.
    pub fn run(&self, algorithm: &mut dyn FlAlgorithm) -> RunResult {
        Driver::new(&self.env).run(algorithm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{ClientOutcome, ClientReport, ClientUpdate};
    use crate::config::{FlConfig, RoundMode, SelectionKind};
    use crate::train::{account_round, local_sgd, LocalTrainOptions};
    use fedlps_data::scenario::{DatasetKind, ScenarioConfig};
    use fedlps_device::HeterogeneityLevel;
    use fedlps_nn::model::EvalStats;
    use fedlps_tensor::ops::weighted_mean_into;
    use rand::rngs::StdRng;

    /// A miniature FedAvg used to exercise the runner; the real baselines live
    /// in `fedlps-baselines`.
    struct MiniFedAvg {
        global: Vec<f32>,
        staged: Vec<(usize, f64, Vec<f32>)>,
    }

    impl MiniFedAvg {
        fn new() -> Self {
            Self {
                global: Vec::new(),
                staged: Vec::new(),
            }
        }
    }

    impl FlAlgorithm for MiniFedAvg {
        fn name(&self) -> String {
            "MiniFedAvg".into()
        }

        fn setup(&mut self, env: &FlEnv) {
            self.global = env.initial_params();
        }

        fn client_step(
            &self,
            env: &FlEnv,
            _round: usize,
            client: usize,
            rng: &mut StdRng,
        ) -> ClientOutcome {
            let mut params = self.global.clone();
            let options = LocalTrainOptions {
                iterations: env.config.local_iterations,
                batch_size: env.config.batch_size,
                sgd: env.config.sgd,
                param_mask: None,
                prox: None,
                frozen: None,
            };
            let summary = local_sgd(
                &*env.arch,
                &mut params,
                env.train_data(client),
                &options,
                rng,
            );
            let accounting = account_round(
                &*env.arch,
                &env.fleet.static_profile(client),
                None,
                env.config.local_iterations,
                env.config.batch_size,
                env.arch.param_count(),
                env.arch.param_count(),
            );
            let report = ClientReport {
                client_id: client,
                flops: accounting.flops,
                upload_bytes: accounting.upload_bytes,
                download_bytes: accounting.download_bytes,
                local_cost: accounting.local_cost,
                train_accuracy: summary.mean_accuracy,
                train_loss: summary.mean_loss,
                sparse_ratio: 1.0,
                selection_utility: 0.0,
                participations: 0,
                mask_cache_hits: 0,
                mask_cache_misses: 0,
            };
            ClientOutcome::new(report, (client, params))
        }

        fn absorb_update(&mut self, env: &FlEnv, round: usize, update: ClientUpdate) {
            self.absorb_update_stale(env, round, update, 0, 1.0);
        }

        fn absorb_update_stale(
            &mut self,
            env: &FlEnv,
            _round: usize,
            update: ClientUpdate,
            _staleness: u32,
            weight: f64,
        ) {
            let (client, params) = *update
                .downcast::<(usize, Vec<f32>)>()
                .expect("MiniFedAvg update payload");
            self.staged
                .push((client, env.train_size(client) * weight, params));
        }

        fn aggregate(&mut self, _env: &FlEnv, _round: usize, _reports: &[ClientReport]) {
            if self.staged.is_empty() {
                return;
            }
            let weights: Vec<f64> = self.staged.iter().map(|(_, w, _)| *w).collect();
            let inputs: Vec<&[f32]> = self.staged.iter().map(|(_, _, p)| p.as_slice()).collect();
            let mut new_global = vec![0.0f32; self.global.len()];
            weighted_mean_into(&mut new_global, &inputs, &weights);
            self.global = new_global;
            self.staged.clear();
        }

        fn evaluate_client(&self, env: &FlEnv, client: usize) -> EvalStats {
            env.arch.evaluate(&self.global, env.test_data(client))
        }
    }

    fn env_with(config: FlConfig) -> FlEnv {
        FlEnv::from_scenario(
            &ScenarioConfig::tiny(DatasetKind::MnistLike),
            HeterogeneityLevel::High,
            config,
        )
    }

    #[test]
    fn runner_produces_monotone_cumulative_metrics() {
        let env = env_with(FlConfig::tiny());
        let sim = Simulator::new(env);
        let mut algo = MiniFedAvg::new();
        let result = sim.run(&mut algo);

        assert_eq!(result.rounds.len(), FlConfig::tiny().rounds);
        assert_eq!(result.algorithm, "MiniFedAvg");
        let mut prev_flops = 0.0;
        let mut prev_time = 0.0;
        for r in &result.rounds {
            assert!(r.cumulative_flops >= prev_flops);
            assert!(r.cumulative_time >= prev_time);
            assert_eq!(r.round_start_time, prev_time);
            assert_eq!(r.straggler_drops, 0, "synchronous rounds drop nobody");
            prev_flops = r.cumulative_flops;
            prev_time = r.cumulative_time;
            assert!(r.round_time > 0.0);
        }
        // The last round is always evaluated.
        assert!(result.rounds.last().unwrap().mean_accuracy.is_some());
        assert!(result.final_accuracy >= 0.0 && result.final_accuracy <= 1.0);
    }

    #[test]
    fn training_beats_untrained_baseline() {
        let env = FlEnv::from_scenario(
            &ScenarioConfig::tiny(DatasetKind::MnistLike),
            HeterogeneityLevel::Low,
            FlConfig::tiny().with_rounds(10),
        );
        let initial_acc = env.global_model_accuracy(&env.initial_params());
        let sim = Simulator::new(env);
        let mut algo = MiniFedAvg::new();
        let result = sim.run(&mut algo);
        assert!(
            result.best_accuracy > initial_acc,
            "federated training should beat the untrained model ({} vs {})",
            result.best_accuracy,
            initial_acc
        );
    }

    #[test]
    fn runs_are_deterministic_for_a_seed() {
        let mk = || Simulator::new(env_with(FlConfig::tiny())).run(&mut MiniFedAvg::new());
        let a = mk();
        let b = mk();
        assert_eq!(a, b);
    }

    #[test]
    fn deadline_rounds_drop_stragglers_and_compress_virtual_time() {
        let sync = Simulator::new(env_with(FlConfig::tiny())).run(&mut MiniFedAvg::new());
        // Half the slowest sync round: on a High-heterogeneity fleet the
        // 1/16-tier stragglers cannot land inside it.
        let budget = sync.rounds.iter().map(|r| r.round_time).fold(0.0, f64::max) * 0.5;
        let deadline = Simulator::new(env_with(
            FlConfig::tiny().with_round_mode(RoundMode::deadline(budget, 2)),
        ))
        .run(&mut MiniFedAvg::new());

        assert_eq!(deadline.rounds.len(), sync.rounds.len());
        assert!(
            deadline.total_straggler_drops() > 0,
            "a halved budget must drop someone"
        );
        assert!(
            deadline.total_time < sync.total_time,
            "deadline rounds must cost less virtual time ({} vs {})",
            deadline.total_time,
            sync.total_time
        );
        for r in &deadline.rounds {
            assert!(r.round_time <= budget + 1e-12, "budget is a hard cap");
        }
    }

    #[test]
    fn async_pipeline_completes_with_staleness_accounting() {
        let result = Simulator::new(env_with(
            FlConfig::tiny().with_round_mode(RoundMode::asynchronous(3, 0.6)),
        ))
        .run(&mut MiniFedAvg::new());
        assert_eq!(result.rounds.len(), FlConfig::tiny().rounds);
        let hist = result.staleness_histogram();
        assert_eq!(hist.len(), 4, "one bucket per staleness level");
        assert!(hist.iter().sum::<u64>() > 0, "updates were absorbed");
        let mut prev = 0.0;
        for r in &result.rounds {
            assert!(r.cumulative_time >= prev);
            prev = r.cumulative_time;
        }
        assert!(result.rounds.last().unwrap().mean_accuracy.is_some());
    }

    #[test]
    fn async_beats_synchronous_virtual_time_on_a_heterogeneous_fleet() {
        let sync = Simulator::new(env_with(FlConfig::tiny())).run(&mut MiniFedAvg::new());
        let async_run = Simulator::new(env_with(
            FlConfig::tiny().with_round_mode(RoundMode::asynchronous(4, 0.5)),
        ))
        .run(&mut MiniFedAvg::new());
        assert!(
            async_run.total_time < sync.total_time,
            "absorbing early arrivals must beat waiting for stragglers ({} vs {})",
            async_run.total_time,
            sync.total_time
        );
    }

    #[test]
    fn async_pipeline_keeps_the_begin_round_cadence() {
        // Round-level server state (CS mask refreshes, PruneFL re-pruning)
        // lives in begin_round; the async pipeline must keep invoking it at
        // every version bump, not just for the initial cohort.
        struct CountingFedAvg {
            inner: MiniFedAvg,
            begin_rounds: Vec<usize>,
        }
        impl FlAlgorithm for CountingFedAvg {
            fn name(&self) -> String {
                self.inner.name()
            }
            fn setup(&mut self, env: &FlEnv) {
                self.inner.setup(env)
            }
            fn begin_round(
                &mut self,
                _env: &FlEnv,
                round: usize,
                _selected: &[usize],
                _rng: &mut StdRng,
            ) {
                self.begin_rounds.push(round);
            }
            fn client_step(
                &self,
                env: &FlEnv,
                round: usize,
                client: usize,
                rng: &mut StdRng,
            ) -> ClientOutcome {
                self.inner.client_step(env, round, client, rng)
            }
            fn absorb_update(&mut self, env: &FlEnv, round: usize, update: ClientUpdate) {
                self.inner.absorb_update(env, round, update)
            }
            fn absorb_update_stale(
                &mut self,
                env: &FlEnv,
                round: usize,
                update: ClientUpdate,
                staleness: u32,
                weight: f64,
            ) {
                self.inner
                    .absorb_update_stale(env, round, update, staleness, weight)
            }
            fn aggregate(&mut self, env: &FlEnv, round: usize, reports: &[ClientReport]) {
                self.inner.aggregate(env, round, reports)
            }
            fn evaluate_client(&self, env: &FlEnv, client: usize) -> fedlps_nn::model::EvalStats {
                self.inner.evaluate_client(env, client)
            }
        }

        let mut algo = CountingFedAvg {
            inner: MiniFedAvg::new(),
            begin_rounds: Vec::new(),
        };
        let env = env_with(FlConfig::tiny().with_round_mode(RoundMode::asynchronous(3, 0.6)));
        let result = Simulator::new(env).run(&mut algo);
        assert_eq!(result.rounds.len(), FlConfig::tiny().rounds);
        assert_eq!(
            algo.begin_rounds,
            (0..FlConfig::tiny().rounds).collect::<Vec<_>>(),
            "begin_round must fire once per version, in order"
        );
    }

    /// Every {mode × policy} combination runs the full horizon and is
    /// bit-identical serially and on 2, 4 and all-cores threads (the
    /// sim-crate-level check, on `MiniFedAvg`; the
    /// facade's `tests/determinism_matrix.rs` covers FedLPS and the
    /// topology / availability / fault axes).
    #[test]
    fn mode_policy_backend_matrix_is_bit_identical_across_execution() {
        let run = |mode: RoundMode, selection: SelectionKind, parallelism: usize| {
            Simulator::new(env_with(
                FlConfig::tiny()
                    .with_round_mode(mode)
                    .with_selection(selection)
                    .with_parallelism(parallelism),
            ))
            .run(&mut MiniFedAvg::new())
        };
        for mode in [
            RoundMode::Synchronous,
            RoundMode::deadline(0.5, 2),
            RoundMode::asynchronous(3, 0.5),
        ] {
            for selection in [
                SelectionKind::Uniform,
                SelectionKind::utility(),
                SelectionKind::PowerOfChoice,
            ] {
                let reference = run(mode, selection, 1);
                assert_eq!(
                    reference.rounds.len(),
                    FlConfig::tiny().rounds,
                    "{}/{} must run the full horizon",
                    mode.name(),
                    selection.name()
                );
                for parallelism in [2, 4, 0] {
                    assert_eq!(
                        reference,
                        run(mode, selection, parallelism),
                        "{}/{} at parallelism {parallelism} must match the serial run",
                        mode.name(),
                        selection.name()
                    );
                }
            }
        }
    }

    #[test]
    fn bad_config_knobs_panic_at_construction_with_the_knob_name() {
        use crate::config::{SelectionKind, Topology};
        let two_tier = |zones, zone_deadline, zone_uplink| {
            FlConfig::tiny().with_topology(Topology::TwoTier {
                zones,
                zone_deadline,
                zone_uplink,
            })
        };
        let utility = |exploration| {
            FlConfig::tiny().with_selection(SelectionKind::UtilityBased { exploration })
        };
        // Each of the topology / selection rows used to pass construction
        // and panic (or silently misbehave) inside `run`.
        for (config, knob) in [
            (FlConfig::tiny().with_quorum(1.5), "FlConfig.quorum"),
            (two_tier(0, None, 4.0), "FlConfig.topology"),
            (two_tier(4, None, 0.0), "FlConfig.topology"),
            (two_tier(4, None, f64::NAN), "FlConfig.topology"),
            (two_tier(4, Some(-1.0), 4.0), "FlConfig.topology"),
            (utility(7.0), "FlConfig.selection"),
            (utility(f64::NAN), "FlConfig.selection"),
        ] {
            let err = std::panic::catch_unwind(|| Simulator::new(env_with(config))).unwrap_err();
            let msg = err.downcast_ref::<String>().expect("panic payload");
            assert!(msg.contains(knob), "{msg}");
        }
    }

    /// Transient upload faults: retries surface in the metrics, permanent
    /// drops are attributed to their cause, and the trace stays bit-identical
    /// across parallelism in every round mode.
    #[test]
    fn upload_faults_retry_then_drop_deterministically() {
        use crate::config::FaultConfig;
        let faults = FaultConfig {
            upload_failure_prob: 0.4,
            max_retries: 1,
            ..FaultConfig::default()
        };
        for mode in [
            RoundMode::Synchronous,
            RoundMode::deadline(1e9, 0),
            RoundMode::asynchronous(3, 0.6),
        ] {
            let run = |parallelism: usize| {
                Simulator::new(env_with(
                    FlConfig::tiny()
                        .with_round_mode(mode)
                        .with_faults(faults)
                        .with_parallelism(parallelism),
                ))
                .run(&mut MiniFedAvg::new())
            };
            let result = run(1);
            assert_eq!(result.rounds.len(), FlConfig::tiny().rounds);
            assert!(
                result.total_retry_attempts() > 0,
                "{}: p=0.4 over 6 rounds x 3 clients should retry someone",
                mode.name()
            );
            assert_eq!(
                result,
                run(4),
                "{}: fault schedules must be parallelism-independent",
                mode.name()
            );
        }
        // With no retransmissions allowed, first failures drop permanently.
        let harsh = Simulator::new(env_with(FlConfig::tiny().with_faults(FaultConfig {
            upload_failure_prob: 0.6,
            max_retries: 0,
            ..FaultConfig::default()
        })))
        .run(&mut MiniFedAvg::new());
        assert!(harsh.total_upload_failure_drops() > 0);
        assert_eq!(
            harsh
                .drop_causes()
                .iter()
                .find(|(cause, _)| *cause == "upload-failure")
                .unwrap()
                .1,
            harsh.total_upload_failure_drops()
        );
    }

    /// The driver's event-driven retry accounting agrees with the closed
    /// form: replaying every synchronous dispatch through
    /// [`FaultConfig::plan`](crate::config::FaultConfig::plan) predicts
    /// the run's retry and upload-failure totals exactly.
    #[test]
    fn retry_accounting_matches_the_fault_plan() {
        use crate::config::FaultConfig;
        use std::sync::Mutex;

        /// `MiniFedAvg` that records every `(client, round)` it steps.
        struct Recording {
            inner: MiniFedAvg,
            steps: Mutex<Vec<(usize, usize)>>,
        }
        impl FlAlgorithm for Recording {
            fn name(&self) -> String {
                self.inner.name()
            }
            fn setup(&mut self, env: &FlEnv) {
                self.inner.setup(env)
            }
            fn client_step(
                &self,
                env: &FlEnv,
                round: usize,
                client: usize,
                rng: &mut StdRng,
            ) -> ClientOutcome {
                self.steps.lock().unwrap().push((client, round));
                self.inner.client_step(env, round, client, rng)
            }
            fn absorb_update(&mut self, env: &FlEnv, round: usize, update: ClientUpdate) {
                self.inner.absorb_update(env, round, update)
            }
            fn aggregate(&mut self, env: &FlEnv, round: usize, reports: &[ClientReport]) {
                self.inner.aggregate(env, round, reports)
            }
            fn evaluate_client(&self, env: &FlEnv, client: usize) -> EvalStats {
                self.inner.evaluate_client(env, client)
            }
        }

        let faults = FaultConfig {
            upload_failure_prob: 0.4,
            max_retries: 1,
            ..FaultConfig::default()
        };
        let config = FlConfig::tiny().with_faults(faults);
        let mut algo = Recording {
            inner: MiniFedAvg::new(),
            steps: Mutex::new(Vec::new()),
        };
        let result = Simulator::new(env_with(config)).run(&mut algo);

        // Synchronous rounds key every upload's fault draws by its round.
        let plans: Vec<_> = algo
            .steps
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|(client, round)| faults.plan(config.seed, client, round as u64))
            .collect();
        assert_eq!(plans.len(), config.rounds * config.clients_per_round);
        let retries: u64 = plans
            .iter()
            .map(|p| p.failures.min(faults.max_retries) as u64)
            .sum();
        let drops = plans.iter().filter(|p| !p.delivered).count() as u64;
        assert!(
            retries > 0 && drops > 0,
            "the schedule exercises both paths"
        );
        assert_eq!(result.total_retry_attempts(), retries);
        assert_eq!(result.total_upload_failure_drops(), drops);
    }

    /// Diurnal availability: dispatches into an outage wait it out (billed
    /// as latency), in synchronous mode too.
    #[test]
    fn diurnal_availability_stretches_rounds_and_is_observable() {
        use crate::config::AvailabilityModel;
        let run = |availability: AvailabilityModel| {
            Simulator::new(env_with(FlConfig::tiny().with_availability(availability)))
                .run(&mut MiniFedAvg::new())
        };
        let always_on = run(AvailabilityModel::AlwaysOn);
        let diurnal = run(AvailabilityModel::Diurnal {
            period: always_on.total_time / 3.0,
            phase_spread: 1.0,
            night_offline: 0.5,
        });
        assert!(
            diurnal.total_unavailable_dispatches() > 0,
            "half the day offline must catch some dispatch"
        );
        assert!(diurnal.total_unavailable_wait_seconds() > 0.0);
        assert!(
            diurnal.total_time > always_on.total_time,
            "waiting out outages must cost virtual time ({} vs {})",
            diurnal.total_time,
            always_on.total_time
        );
        assert_eq!(always_on.total_unavailable_dispatches(), 0);
    }

    /// The quorum knob closes barrier rounds early: same round count, less
    /// virtual time, stragglers dropped, closes attributed in the metrics.
    #[test]
    fn quorum_closes_synchronous_rounds_early() {
        let full = Simulator::new(env_with(FlConfig::tiny())).run(&mut MiniFedAvg::new());
        let quorum =
            Simulator::new(env_with(FlConfig::tiny().with_quorum(0.5))).run(&mut MiniFedAvg::new());
        assert_eq!(quorum.rounds.len(), full.rounds.len());
        assert!(
            quorum.total_quorum_closes() > 0,
            "a 0.5 quorum over 3-client cohorts must close early"
        );
        assert!(
            quorum.total_time < full.total_time,
            "closing at the quorum must beat waiting for the straggler ({} vs {})",
            quorum.total_time,
            full.total_time
        );
        assert!(quorum.total_straggler_drops() > 0);
    }

    /// The driver stamps the selection layer's stats into the reports and
    /// the run result.
    #[test]
    fn participation_census_reaches_the_run_result() {
        let result = Simulator::new(env_with(FlConfig::tiny())).run(&mut MiniFedAvg::new());
        let census = &result.client_participations;
        assert_eq!(census.len(), 8, "one entry per client");
        let dispatched: u64 = census.iter().sum();
        assert_eq!(
            dispatched as usize,
            FlConfig::tiny().rounds * FlConfig::tiny().clients_per_round,
            "synchronous rounds dispatch exactly the cohort"
        );
        assert_eq!(
            result.total_first_time_participants(),
            census.iter().filter(|&&n| n > 0).count() as u64,
            "every participating client is counted first-time exactly once"
        );
    }
}
