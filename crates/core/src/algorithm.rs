//! FedLPS as the [`Lps`] family on the shared round skeleton: [`FedLps`] is
//! [`Server<Lps>`](Server).

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use fedlps_bandit::ratio_policy::{ClientInit, RatioController, RatioFeedback};
use fedlps_nn::model::EvalStats;
use fedlps_sim::algorithm::ClientReport;
use fedlps_sim::env::FlEnv;
use fedlps_sparse::ratio::retained_per_layer;
use rand::rngs::StdRng;

use crate::client::{ClientState, ClientTask, ClientUpdateOptions};
use crate::config::FedLpsConfig;
use crate::importance::GlobalUnitSums;
use crate::server::{Family, Residual, Server, StagedUpdate, Step};

/// What a FedLPS client step hands to the serial absorb next to its staged
/// residual.
#[derive(Debug)]
pub struct LpsSide {
    state: ClientState,
    feedback: RatioFeedback,
}

/// FedLPS: learnable personalized sparsification with P-UCBV ratio decisions.
///
/// Create it with [`FedLps::new`], hand it to
/// [`Simulator::run`](fedlps_sim::runner::Simulator::run) and read the
/// resulting [`RunResult`](fedlps_sim::metrics::RunResult).
pub type FedLps = Server<Lps>;

/// The FedLPS family: per-client records and the ratio controller. Its
/// uploads are Eq. (12) residuals, so it aggregates by Eq. (13).
#[derive(Debug)]
pub struct Lps {
    config: FedLpsConfig,
    /// Per-client persistent state, materialized on first participation and
    /// stored sparsely: a client that never trained reads as
    /// [`ClientState::default`], exactly as the former dense
    /// `Vec<ClientState>` of defaults did, but the map costs `O(participants)`
    /// memory instead of `O(population)`. A record's mask and plan are also
    /// the cross-round mask reuse: a client's pattern is rebuilt only when
    /// the bandit moves its ratio to a different submodel shape.
    clients: BTreeMap<usize, ClientState>,
    /// The state every untouched client reads as (kept as a field so
    /// [`FedLps::client_state`] can hand out a reference).
    blank: ClientState,
    controller: Option<RatioController>,
    /// The round the unit sums were built for, and the sums: every task of
    /// that round reads them instead of walking the global itself.
    round_sums: Option<(usize, GlobalUnitSums)>,
}

impl Server<Lps> {
    /// Creates a FedLPS driver with the given configuration.
    pub fn new(config: FedLpsConfig) -> Self {
        Self::from(Lps {
            config,
            clients: BTreeMap::new(),
            blank: ClientState::default(),
            controller: None,
            round_sums: None,
        })
    }

    /// FedLPS with the paper's default configuration sized for the federation
    /// described by `env` (bandit horizon = round budget, etc.).
    pub fn for_env(env: &FlEnv) -> Self {
        Self::new(FedLpsConfig::for_federation(
            env.config.rounds,
            env.config.clients_per_round,
        ))
    }

    /// The algorithm configuration.
    pub fn config(&self) -> &FedLpsConfig {
        &self.family().config
    }

    /// A client's persistent state (indicator, personalized model, last
    /// mask and plan). Clients that never participated read as
    /// [`ClientState::default`] without materializing anything.
    pub fn client_state(&self, client: usize) -> &ClientState {
        self.family().client_state(client)
    }

    /// Number of clients whose persistent state has actually materialized —
    /// bounded by the distinct participants, not the registered population.
    pub fn materialized_clients(&self) -> usize {
        self.family().clients.len()
    }

    /// Floats the materialized personal models hold: each record's kept
    /// coordinates when its mask packs, the full model otherwise.
    pub fn personal_model_floats(&self) -> usize {
        let records = self.family().clients.values();
        records
            .filter_map(|state| state.personal.as_ref())
            .map(|model| model.params().len())
            .sum()
    }

    /// Number of bandit arms the ratio controller holds: the full population
    /// when it was built up front, only the touched clients on a
    /// population-scale run (0 before `setup`).
    pub fn materialized_arms(&self) -> usize {
        self.family()
            .controller
            .as_ref()
            .map_or(0, |c| c.materialized())
    }

    /// The sparse ratios the controller currently proposes for every client.
    /// `O(population)`: panics on a population-scale run, whose agents are
    /// built on first participation; read those through the round flow.
    pub fn proposed_ratios(&self) -> Vec<f64> {
        self.family()
            .controller
            .as_ref()
            .map(|c| c.proposals())
            .unwrap_or_default()
    }

    /// The per-client records, which hold every reused mask. It exists for
    /// the benchmark's `sparse.mask_cache_entries` (hence the `Option`,
    /// always `Some`) and for tests that inspect every record; its length is
    /// [`materialized_clients`](Self::materialized_clients).
    pub fn mask_cache(&self) -> Option<&BTreeMap<usize, ClientState>> {
        Some(&self.family().clients)
    }
}

impl Lps {
    fn client_state(&self, client: usize) -> &ClientState {
        self.clients.get(&client).unwrap_or(&self.blank)
    }

    /// The sparse ratio a client uses this round given its dynamically
    /// `available` device profile: the server proposal capped by the static
    /// tier, then by what the device can actually spare.
    fn round_ratio(&self, available: &fedlps_device::DeviceProfile, client: usize) -> f64 {
        let controller = self.controller.as_ref().expect("setup() not called");
        controller
            .ratio_for(client)
            .min(available.max_sparse_ratio())
            .max(0.01)
    }

    fn update_options(&self, env: &FlEnv, ratio: f64, round: usize) -> ClientUpdateOptions {
        ClientUpdateOptions {
            iterations: env.config.local_iterations,
            batch_size: env.config.batch_size,
            sgd: env.config.sgd,
            importance_lr: self.config.importance_lr.unwrap_or(env.config.sgd.lr),
            mu: self.config.mu,
            lambda: self.config.lambda,
            pattern: self.config.pattern,
            ratio,
            round,
        }
    }
}

/// The lazy controller's per-client initializer. The `a^{-1}` baseline
/// depends only on the initial global and the client's data shard, so it is
/// evaluated at most once per shard (`k % S` on a tiled registry) and read
/// from a table of `S` cells afterwards; a policy that does not read it gets
/// `0.0` and no evaluation. The provider runs under the controller lock,
/// which is why the evaluation must not repeat per client.
fn lazy_client_init(
    env: &FlEnv,
    global: &[f32],
    reads_accuracy: bool,
) -> Box<dyn Fn(usize) -> ClientInit + Send + Sync> {
    let fleet = env.fleet.clone();
    if !reads_accuracy {
        return Box::new(move |k| ClientInit {
            capability: fleet.static_profile(k).capability,
            initial_accuracy: 0.0,
        });
    }
    let arch = Arc::clone(&env.arch);
    let data = env.data.clone();
    let global = global.to_vec();
    let baselines: Vec<OnceLock<f64>> = (0..data.num_clients()).map(|_| OnceLock::new()).collect();
    Box::new(move |k| {
        let shard = k % data.num_clients();
        ClientInit {
            capability: fleet.static_profile(k).capability,
            initial_accuracy: *baselines[shard]
                .get_or_init(|| arch.evaluate(&global, &data.clients[shard].train).accuracy),
        }
    })
}

impl Family for Lps {
    type Upload = StagedUpdate;
    type Side = LpsSide;

    fn label(&self) -> String {
        let ratio = self.config.ratio_policy.name();
        let pattern = self.config.pattern.name();
        if pattern == "learnable-importance" && ratio == "p-ucbv" {
            "FedLPS".to_string()
        } else {
            format!("FedLPS[{pattern},{ratio}]")
        }
    }

    fn setup(&mut self, env: &FlEnv, global: &[f32]) {
        self.clients.clear();
        self.round_sums = None;
        let units_per_layer = env.arch.unit_layout().units_per_layer();
        let policy = &self.config.ratio_policy;
        let mut controller = if env.fleet.is_lazy() {
            // Population-scale path: seeding the bandits for every registered
            // client would be an `O(population)` sweep. Hand the controller a
            // per-client initializer instead; it materializes an arm the
            // first time a client is actually touched.
            RatioController::lazy(
                policy.clone(),
                env.num_clients(),
                lazy_client_init(env, global, policy.reads_initial_accuracy()),
                env.config.seed,
            )
        } else {
            // Each baseline is a full evaluation pass; policies that never
            // read it get `0.0`.
            let initial_accuracy = if policy.reads_initial_accuracy() {
                env.initial_training_accuracy(global)
            } else {
                vec![0.0; env.num_clients()]
            };
            RatioController::new(
                policy.clone(),
                &env.capabilities(),
                &initial_accuracy,
                env.config.seed,
            )
        };
        if self.config.quantize_arm_space {
            // Collapse P-UCBV's continuous samples onto the model's shape
            // resolution so repeat proposals reuse cached masks.
            controller = controller.with_shape_resolution(&units_per_layer);
        }
        self.controller = Some(controller);
    }

    /// Builds the round's `GlobalUnitSums`: one walk of the global that
    /// every task of the round would otherwise repeat (a first
    /// participation's indicator, the dropped units' sums).
    fn begin_round(&mut self, env: &FlEnv, global: &[f32], round: usize, _rng: &mut StdRng) {
        let sums = GlobalUnitSums::new(env.arch.unit_layout(), global, self.config.mu);
        self.round_sums = Some((round, sums));
    }

    fn train(&self, step: &Step<'_>, rng: &mut StdRng) -> (ClientReport, Residual, LpsSide) {
        let (env, client) = (step.env, step.client);
        let (round, round_sums) = self
            .round_sums
            .as_ref()
            .expect("begin_round builds the round's unit sums before any step");
        assert_eq!(
            *round, step.round,
            "unit sums of round {round} read in round {}: begin_round did not run for this round",
            step.round
        );
        let ratio = self.round_ratio(&step.device, client);

        // The client's record reuses its last mask and plan while the ratio
        // extracts the same per-layer retained-unit counts; the hit/miss
        // rides the report into the round metrics, and the new record is
        // written in `absorbed`, serially. Pattern strategies whose masks
        // depend on more than the ratio (random resampling, rolling windows,
        // live weight magnitudes) never reuse — that would change their
        // semantics.
        let state = self.client_state(client);
        let caching = self.config.pattern.cacheable_across_rounds();
        let hit = caching && state.last_mask.is_some() && {
            let units = env.arch.unit_layout().units_per_layer();
            retained_per_layer(&units, state.last_ratio) == retained_per_layer(&units, ratio)
        };
        let task = ClientTask {
            arch: &*env.arch,
            global: step.global,
            state,
            data: env.train_data(client),
            options: self.update_options(env, ratio, step.round),
            cached_mask: state.last_mask.as_ref().filter(|_| hit),
            packed_execution: true,
            cached_plan: state.plan().filter(|_| hit).cloned(),
        };
        let output = task.run_with(rng, round_sums);
        let outcome = output.outcome;
        let mut report = step.report(
            Some(&outcome.mask),
            ratio,
            outcome.mean_accuracy,
            outcome.mean_loss,
        );
        report.mask_cache_hits = hit as u32;
        report.mask_cache_misses = (caching && !hit) as u32;
        let side = LpsSide {
            state: output.state,
            feedback: RatioFeedback {
                ratio,
                local_cost: report.local_cost.total(),
                accuracy: outcome.mean_accuracy,
            },
        };
        (report, outcome.residual, side)
    }

    /// Persists the client's record.
    fn absorbed(&mut self, client: usize, _round: usize, side: LpsSide) {
        self.clients.insert(client, side.state);
        if let Some(controller) = self.controller.as_mut() {
            controller.defer(client, side.feedback);
        }
    }

    fn aggregated(&mut self) {
        if let Some(controller) = self.controller.as_mut() {
            controller.apply_deferred();
        }
    }

    /// Personalized deployment (Algorithm 1, line 24): the client's own
    /// sparse model, evaluated straight on the packed submodel it is stored
    /// on (no mask compilation, no gather), or at full length when its mask
    /// does not pack; a client that never trained gets the dense global
    /// model.
    fn deployed(&self, env: &FlEnv, global: &[f32], client: usize) -> EvalStats {
        let test = env.test_data(client);
        match &self.client_state(client).personal {
            Some(model) => model.evaluate(&*env.arch, test),
            None => env.arch.evaluate(global, test),
        }
    }

    /// A client that trained deploys its own record; one that never did
    /// deploys the global model.
    fn deploys_own_record(&self, client: usize) -> bool {
        self.client_state(client).personal.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PersonalModel;
    use fedlps_data::dataset::Dataset;
    use fedlps_data::scenario::{DatasetKind, ScenarioConfig};
    use fedlps_device::{DeviceFleet, HeterogeneityLevel};
    use fedlps_nn::model::{ModelArch, ModelKind, TrainStats};
    use fedlps_nn::pack::{KeptUnits, PackedModel};
    use fedlps_nn::unit::UnitLayout;
    use fedlps_sim::algorithm::FlAlgorithm;
    use fedlps_sim::config::FlConfig;
    use fedlps_sim::runner::Simulator;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tiny_env() -> FlEnv {
        FlEnv::from_scenario(
            &ScenarioConfig::tiny(DatasetKind::MnistLike),
            HeterogeneityLevel::High,
            FlConfig::tiny().with_rounds(8),
        )
    }

    #[test]
    fn fedlps_runs_and_improves_over_initialization() {
        let env = tiny_env();
        let initial = env.global_model_accuracy(&env.initial_params());
        let sim = Simulator::new(env);
        let mut algo = FedLps::for_env(sim.env());
        let result = sim.run(&mut algo);
        assert_eq!(result.algorithm, "FedLPS");
        assert!(
            result.best_accuracy > initial,
            "FedLPS should beat the untrained model ({} vs {initial})",
            result.best_accuracy
        );
        // Some sparsification must actually have happened on this
        // heterogeneous fleet.
        assert!(result.mean_sparse_ratio() < 0.999);
    }

    #[test]
    fn ratios_respect_capabilities() {
        let env = tiny_env();
        let caps = env.capabilities();
        let sim = Simulator::new(env);
        let mut algo = FedLps::for_env(sim.env());
        let _ = sim.run(&mut algo);
        for (k, ratio) in algo.proposed_ratios().iter().enumerate() {
            assert!(
                *ratio <= caps[k] + 1e-9,
                "client {k}: proposed ratio {ratio} exceeds capability {}",
                caps[k]
            );
        }
    }

    #[test]
    fn personalized_states_are_created_for_participants() {
        let env = tiny_env();
        let sim = Simulator::new(env);
        let mut algo = FedLps::for_env(sim.env());
        let _ = sim.run(&mut algo);
        let trained = (0..sim.env().num_clients())
            .filter(|&k| algo.client_state(k).personal.is_some())
            .count();
        assert!(trained > 0);
        for k in 0..sim.env().num_clients() {
            if let Some(mask) = &algo.client_state(k).last_mask {
                assert_eq!(mask.len(), sim.env().arch.unit_layout().total_units());
            }
        }
    }

    #[test]
    fn mask_cache_serves_repeat_participations() {
        let env = tiny_env();
        let sim = Simulator::new(env);
        let mut algo = FedLps::for_env(sim.env());
        let result = sim.run(&mut algo);
        let misses: u64 = result.rounds.iter().map(|r| r.mask_cache_misses).sum();
        assert!(misses > 0, "first participations are misses");
        // Every first participation misses and writes its client's record:
        // one record, holding the reusable mask, per distinct participant.
        assert_eq!(
            algo.materialized_clients() as u64,
            result.total_first_time_participants()
        );
        // The per-round counters flow into the metrics trace.
        assert!(result.rounds.iter().all(|r| {
            r.mask_cache_hits + r.mask_cache_misses
                == sim
                    .env()
                    .config
                    .clients_per_round
                    .min(sim.env().num_clients()) as u64
        }));
    }

    #[test]
    fn non_cacheable_patterns_bypass_the_cache() {
        use fedlps_sparse::pattern::PatternStrategy;
        // Random dropout must be resampled every participation; reuse
        // records no traffic at all for it (bypass, not a stream of misses).
        let env = tiny_env();
        let sim = Simulator::new(env);
        let mut algo = FedLps::new(FedLpsConfig::with_pattern(PatternStrategy::Random, 0.5));
        let result = sim.run(&mut algo);
        assert!(result
            .rounds
            .iter()
            .all(|r| r.mask_cache_hits + r.mask_cache_misses == 0));
        assert_eq!(result.mask_cache_hit_rate(), 0.0);
        // (That the random pattern actually resamples across participations
        // is pinned at the client level in `client::tests`.)
    }

    #[test]
    fn stable_ratio_policies_hit_the_mask_cache_after_warmup() {
        // With the rigid RCR rule (ratio = capability, a Table II ablation)
        // every participation after a client's first reuses its cached mask,
        // so the warm hit rate must clear the ROADMAP's 80% bar. FedLPS
        // proper trails this because P-UCBV keeps resampling ratios while it
        // explores (`perf/` reports its fleet-scale rate as
        // `sparse.mask_cache_hit_rate`).
        let env = FlEnv::from_scenario(
            &ScenarioConfig::tiny(DatasetKind::MnistLike),
            HeterogeneityLevel::High,
            FlConfig::tiny().with_rounds(12),
        );
        let sim = Simulator::new(env);
        let mut algo = FedLps::new(FedLpsConfig::rcr());
        let result = sim.run(&mut algo);
        let warm = result.mask_cache_hit_rate_from(3);
        assert!(
            warm > 0.8,
            "warm mask-cache hit rate should exceed 80% under a stable ratio policy, got {warm}"
        );
    }

    #[test]
    fn arm_quantization_lifts_the_warm_mask_cache_hit_rate() {
        // The ROADMAP gap: P-UCBV's continuous samples churn the submodel
        // shape, so FedLPS proper warm-hits ~30% while stable policies sit
        // ~90%. Quantizing the arm space at the shape resolution removes all
        // within-class churn without touching the algorithm's semantics; the
        // misses that remain are genuine cross-partition exploration, which
        // fades as the horizon grows.
        let run = |quantize: bool| {
            let env = FlEnv::from_scenario(
                &ScenarioConfig::tiny(DatasetKind::MnistLike),
                HeterogeneityLevel::High,
                FlConfig::tiny().with_rounds(20),
            );
            let sim = Simulator::new(env);
            let mut algo = FedLps::new(FedLpsConfig::default().with_quantize_arm_space(quantize));
            sim.run(&mut algo).mask_cache_hit_rate_from(3)
        };
        let continuous = run(false);
        let quantized = run(true);
        assert!(
            quantized > continuous,
            "quantized arms must warm-hit more often ({quantized} vs {continuous})"
        );
        assert!(
            quantized > 0.4,
            "quantized warm hit rate should clear 40% on a 20-round run, got {quantized}"
        );
    }

    #[test]
    fn fedlps_runs_under_deadline_and_async_modes() {
        use fedlps_sim::config::RoundMode;
        let run = |mode: RoundMode| {
            let env = FlEnv::from_scenario(
                &ScenarioConfig::tiny(DatasetKind::MnistLike),
                HeterogeneityLevel::High,
                FlConfig::tiny().with_rounds(8).with_round_mode(mode),
            );
            let sim = Simulator::new(env);
            let mut algo = FedLps::for_env(sim.env());
            sim.run(&mut algo)
        };
        let sync = run(RoundMode::Synchronous);
        let deadline = run(RoundMode::deadline(
            sync.rounds.iter().map(|r| r.round_time).fold(0.0, f64::max) * 0.5,
            2,
        ));
        assert_eq!(deadline.rounds.len(), 8);
        assert!(deadline.total_time < sync.total_time);

        let async_run = run(RoundMode::asynchronous(4, 0.5));
        assert_eq!(async_run.rounds.len(), 8);
        assert!(async_run.total_time < sync.total_time);
        assert!(
            async_run.staleness_histogram().iter().sum::<u64>() > 0,
            "async FedLPS must absorb updates (staleness-discounted)"
        );
        assert!((0.0..=1.0).contains(&async_run.final_accuracy));
    }

    #[test]
    fn deployment_matches_dense_evaluation_of_the_personal_model() {
        // `deployed` evaluates the packed record on its plan's submodel;
        // the dense evaluation of that record scattered to full length
        // (zero off the packed coordinates) is the bit-exact reference. A
        // packed record holds its plan's coordinates only.
        for kind in [
            DatasetKind::MnistLike,
            DatasetKind::Cifar10Like,
            DatasetKind::RedditLike,
        ] {
            let env = FlEnv::from_scenario(
                &ScenarioConfig::tiny(kind),
                HeterogeneityLevel::High,
                FlConfig::tiny().with_rounds(3),
            );
            let sim = Simulator::new(env);
            let env = sim.env();
            let mut algo = FedLps::for_env(env);
            let _ = sim.run(&mut algo);
            let global = algo.global_params();
            let mut personalized = 0;
            for k in 0..env.num_clients() {
                let state = algo.client_state(k);
                let model = state.personal.as_ref().map(|model| match model {
                    PersonalModel::Packed { plan, params } => {
                        assert_eq!(params.len(), plan.packed_len());
                        assert!(params.len() < env.arch.param_count());
                        let mut full = vec![0.0; plan.full_len()];
                        plan.scatter_params(params, &mut full);
                        full
                    }
                    PersonalModel::Dense(params) => params.clone(),
                });
                personalized += model.is_some() as usize;
                let model = model.as_deref().unwrap_or(global);
                let expected = env.arch.evaluate(model, env.test_data(k));
                let deployed = algo.evaluate_client(env, k);
                assert_eq!(
                    (deployed.loss.to_bits(), deployed.accuracy.to_bits()),
                    (expected.loss.to_bits(), expected.accuracy.to_bits()),
                    "{kind:?}: client {k} deploys a different model"
                );
                assert_eq!(deployed.samples, expected.samples);
            }
            assert!(personalized > 0, "{kind:?}: no client trained");
        }
    }

    #[test]
    fn every_client_record_holds_the_plan_of_its_mask() {
        use fedlps_sparse::pattern::PatternStrategy;
        use fedlps_sparse::plan::SubmodelPlan;
        // A reused plan must be the one compiled from the reused mask: for
        // every record, `plan` gathers exactly what `last_mask` compiles to,
        // and is `None` exactly when that mask does not compile.
        for kind in [
            DatasetKind::MnistLike,
            DatasetKind::Cifar10Like,
            DatasetKind::RedditLike,
        ] {
            for config in [
                FedLpsConfig::default(),
                FedLpsConfig::with_pattern(PatternStrategy::Random, 0.5),
            ] {
                let env = FlEnv::from_scenario(
                    &ScenarioConfig::tiny(kind),
                    HeterogeneityLevel::High,
                    FlConfig::tiny().with_rounds(4),
                );
                let sim = Simulator::new(env);
                let env = sim.env();
                let mut algo = FedLps::new(config);
                let _ = sim.run(&mut algo);
                assert!(
                    algo.materialized_clients() > 0,
                    "{kind:?}: no client trained"
                );
                for k in 0..env.num_clients() {
                    let state = algo.client_state(k);
                    let compiled = state.last_mask.as_ref().and_then(|mask| {
                        SubmodelPlan::from_mask(env.arch.unit_layout(), mask).compile(&*env.arch)
                    });
                    assert_eq!(
                        state.plan().map(|plan| plan.gather_map()),
                        compiled.as_ref().map(PackedModel::gather_map),
                        "{kind:?} {}: client {k}'s plan is not its mask's",
                        algo.name()
                    );
                }
            }
        }
    }

    /// A model that counts its `evaluate` calls and delegates everything to
    /// the wrapped architecture.
    struct CountingArch {
        inner: Arc<dyn ModelArch>,
        evaluations: AtomicUsize,
    }

    impl ModelArch for CountingArch {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn param_count(&self) -> usize {
            self.inner.param_count()
        }
        fn unit_layout(&self) -> &UnitLayout {
            self.inner.unit_layout()
        }
        fn init_params(&self, rng: &mut StdRng) -> Vec<f32> {
            self.inner.init_params(rng)
        }
        fn loss_and_grad(
            &self,
            params: &[f32],
            data: &Dataset,
            indices: &[usize],
            grad: &mut [f32],
        ) -> TrainStats {
            self.inner.loss_and_grad(params, data, indices, grad)
        }
        fn evaluate(&self, params: &[f32], data: &Dataset) -> EvalStats {
            self.evaluations.fetch_add(1, Ordering::Relaxed);
            self.inner.evaluate(params, data)
        }
        fn train_flops_per_sample(&self, retained_per_layer: &[usize]) -> f64 {
            self.inner.train_flops_per_sample(retained_per_layer)
        }
        fn classifier_params(&self) -> std::ops::Range<usize> {
            self.inner.classifier_params()
        }
        fn pack(&self, kept: &KeptUnits) -> Option<PackedModel> {
            self.inner.pack(kept)
        }
    }

    /// A tiny federation's shards tiled over a lazy registry three laps
    /// long, on a counting MLP.
    fn counted_tiled_env() -> (FlEnv, Arc<CountingArch>) {
        let scenario = ScenarioConfig::tiny(DatasetKind::MnistLike);
        let data = scenario.build();
        let config = FlConfig::tiny();
        let fleet = DeviceFleet::lazy(3 * data.num_clients(), HeterogeneityLevel::High, 5);
        let arch = Arc::new(CountingArch {
            inner: ModelKind::for_dataset(scenario.kind)
                .build(data.input, data.num_classes)
                .into(),
            evaluations: AtomicUsize::new(0),
        });
        let env = FlEnv::new_tiled(data, fleet, arch.clone(), config);
        (env, arch)
    }

    #[test]
    fn registry_baselines_are_evaluated_once_per_shard() {
        let (env, arch) = counted_tiled_env();
        let shards = env.data.num_clients();
        let global = env.initial_params();
        let provider = lazy_client_init(&env, &global, true);
        for lap in 0..3 {
            for shard in 0..shards {
                let k = lap * shards + shard;
                let direct = arch.inner.evaluate(&global, env.train_data(k)).accuracy;
                assert_eq!(provider(k).initial_accuracy.to_bits(), direct.to_bits());
            }
        }
        assert_eq!(arch.evaluations.load(Ordering::Relaxed), shards);

        // The same bound through `setup` and first touches of every client.
        arch.evaluations.store(0, Ordering::Relaxed);
        let mut algo = FedLps::for_env(&env);
        FlAlgorithm::setup(&mut algo, &env);
        assert_eq!(arch.evaluations.load(Ordering::Relaxed), 0);
        let controller = algo.family().controller.as_ref().expect("set up");
        for k in 0..env.num_clients() {
            controller.ratio_for(k);
        }
        assert_eq!(controller.materialized(), env.num_clients());
        assert!(arch.evaluations.load(Ordering::Relaxed) <= shards);
    }

    #[test]
    fn fixed_ratio_policies_never_evaluate_the_baseline() {
        let (registry, arch) = counted_tiled_env();
        let dense = FlEnv::new(
            registry.data.clone(),
            DeviceFleet::sample(registry.data.num_clients(), HeterogeneityLevel::High, 5),
            arch.clone(),
            FlConfig::tiny(),
        );
        for env in [&registry, &dense] {
            for config in [FedLpsConfig::flst(0.25), FedLpsConfig::rcr()] {
                let mut algo = FedLps::new(config);
                FlAlgorithm::setup(&mut algo, env);
                let controller = algo.family().controller.as_ref().expect("set up");
                for k in 0..env.num_clients() {
                    controller.ratio_for(k);
                }
            }
        }
        assert_eq!(arch.evaluations.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn ablation_names_are_distinguishable() {
        use fedlps_sparse::pattern::PatternStrategy;
        assert_eq!(FedLps::new(FedLpsConfig::default()).name(), "FedLPS");
        assert!(FedLps::new(FedLpsConfig::flst(0.5))
            .name()
            .contains("fixed"));
        assert!(
            FedLps::new(FedLpsConfig::with_pattern(PatternStrategy::Random, 0.5))
                .name()
                .contains("random")
        );
    }
}
