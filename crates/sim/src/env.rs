//! The immutable federation environment shared by server and clients.

use std::sync::Arc;

use fedlps_data::dataset::{Dataset, FederatedDataset};
use fedlps_data::scenario::{DatasetKind, ScenarioConfig};
use fedlps_device::{DeviceFleet, HeterogeneityLevel};
use fedlps_nn::model::{ModelArch, ModelKind};
use fedlps_nn::sgd::SgdConfig;
use fedlps_tensor::rng_from_seed;

use crate::config::FlConfig;

/// Everything an [`FlAlgorithm`](crate::algorithm::FlAlgorithm) needs to read
/// about the world: the federated dataset, the device fleet, the model
/// architecture and the federation hyper-parameters. Algorithms keep their
/// own mutable state (global parameters, personalized models, bandit
/// agents, …).
pub struct FlEnv {
    /// The federated dataset.
    pub data: FederatedDataset,
    /// Device profiles, one per client.
    pub fleet: DeviceFleet,
    /// The model architecture shared by all clients.
    pub arch: Arc<dyn ModelArch>,
    /// Federation hyper-parameters.
    pub config: FlConfig,
    /// Registered population size (= `fleet.len()`). Equals
    /// `data.num_clients()` for standard environments; population-scale
    /// environments built with [`FlEnv::new_tiled`] register more clients
    /// than the dataset holds shards, tiling data shards over client ids.
    num_clients: usize,
}

impl std::fmt::Debug for FlEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlEnv")
            .field("clients", &self.data.num_clients())
            .field("arch", &self.arch.name())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl FlEnv {
    /// Builds an environment from its parts.
    pub fn new(
        data: FederatedDataset,
        fleet: DeviceFleet,
        arch: Arc<dyn ModelArch>,
        config: FlConfig,
    ) -> Self {
        assert_eq!(
            data.num_clients(),
            fleet.len(),
            "fleet size must match the number of clients"
        );
        Self::new_tiled(data, fleet, arch, config)
    }

    /// Builds a population-scale environment: the fleet registers more
    /// clients than the dataset holds shards, and client `k` trains on shard
    /// `k % data.num_clients()`. With a [`DeviceFleet::lazy`] fleet this
    /// makes the registered population a free axis — the dataset pool and all
    /// per-client state stay sized by the shards / active participants.
    ///
    /// For `fleet.len() == data.num_clients()` the tiling is the identity
    /// and the environment is indistinguishable from [`FlEnv::new`].
    pub fn new_tiled(
        data: FederatedDataset,
        fleet: DeviceFleet,
        arch: Arc<dyn ModelArch>,
        config: FlConfig,
    ) -> Self {
        assert!(
            data.num_clients() > 0,
            "a tiled environment needs at least one data shard"
        );
        assert!(
            fleet.len() >= data.num_clients(),
            "the registered population ({}) cannot be smaller than the shard pool ({})",
            fleet.len(),
            data.num_clients()
        );
        let num_clients = fleet.len();
        Self {
            data,
            fleet,
            arch,
            config,
            num_clients,
        }
    }

    /// Convenience constructor: builds the dataset from a scenario, samples a
    /// fleet at the given heterogeneity level and instantiates the paper's
    /// default backbone for that dataset.
    pub fn from_scenario(
        scenario: &ScenarioConfig,
        heterogeneity: HeterogeneityLevel,
        config: FlConfig,
    ) -> Self {
        let data = scenario.build();
        let fleet = DeviceFleet::sample(data.num_clients(), heterogeneity, config.seed);
        let arch: Arc<dyn ModelArch> = ModelKind::for_dataset(scenario.kind)
            .build(data.input, data.num_classes)
            .into();
        let mut config = config;
        if scenario.kind == DatasetKind::RedditLike {
            config.sgd = SgdConfig::text();
        }
        Self::new(data, fleet, arch, config)
    }

    /// Number of registered clients in the federation.
    pub fn num_clients(&self) -> usize {
        self.num_clients
    }

    /// The data shard a client trains and tests on. The modulo is the
    /// identity for standard environments (`num_clients ==
    /// data.num_clients()`); tiled population-scale environments wrap client
    /// ids over the shard pool.
    fn shard(&self, client: usize) -> usize {
        client % self.data.num_clients()
    }

    /// A client's local training data.
    pub fn train_data(&self, client: usize) -> &Dataset {
        &self.data.clients[self.shard(client)].train
    }

    /// A client's local test data.
    pub fn test_data(&self, client: usize) -> &Dataset {
        &self.data.clients[self.shard(client)].test
    }

    /// Capability fractions `z_k` of every client (static tiers). Allocates
    /// `O(population)` — population-scale paths read
    /// [`capability`](Self::capability) per participant instead. The
    /// library's remaining callers are the two ratio controllers built up
    /// front on one shared stream: FedMP's setup and the dense branch of
    /// FedLPS's setup.
    pub fn capabilities(&self) -> Vec<f64> {
        (0..self.num_clients())
            .map(|k| self.fleet.static_profile(k).capability)
            .collect()
    }

    /// Capability fraction `z_k` of one client (static tier).
    pub fn capability(&self, client: usize) -> f64 {
        self.fleet.static_profile(client).capability
    }

    /// FedAvg aggregation weight `|D_k|` of one client.
    pub fn train_size(&self, client: usize) -> f64 {
        self.train_data(client).len() as f64
    }

    /// The Eq. (14) full-dense-model latency prior of one client: compute
    /// time of a round of local SGD on the client's static device tier plus
    /// the upload time of the dense parameter vector. A pure function of the
    /// environment — well-defined before anyone has trained — used by the
    /// selection layer to score system speed.
    pub fn expected_latency(&self, client: usize) -> f64 {
        Self::latency_of(
            &*self.arch,
            &self.config,
            &self.fleet.static_profile(client),
        )
    }

    fn latency_of(
        arch: &dyn ModelArch,
        config: &FlConfig,
        profile: &fedlps_device::DeviceProfile,
    ) -> f64 {
        crate::train::account_round(
            arch,
            profile,
            None,
            config.local_iterations,
            config.batch_size,
            arch.param_count(),
            arch.param_count(),
        )
        .local_cost
        .total()
    }

    /// [`expected_latency`](Self::expected_latency) of every client.
    /// Allocates `O(population)` — population-scale paths use
    /// [`latency_prior`](Self::latency_prior) instead.
    pub fn expected_latencies(&self) -> Vec<f64> {
        (0..self.num_clients())
            .map(|k| self.expected_latency(k))
            .collect()
    }

    /// The fastest latency any device tier can achieve: the Eq. (14) cost on
    /// a full-capability profile. Lower-bounds every client's
    /// [`expected_latency`](Self::expected_latency) — the reference for the
    /// selection layer's speed term on lazy populations.
    pub fn latency_floor(&self) -> f64 {
        Self::latency_of(
            &*self.arch,
            &self.config,
            &fedlps_device::DeviceProfile::from_tier(fedlps_device::CapabilityTier::Full),
        )
    }

    /// The per-client latency prior as a self-contained function, for
    /// [`SelectionTracker::lazy`](fedlps_select::SelectionTracker::lazy):
    /// nothing `O(population)` is captured (the fleet clone shares its memo
    /// through an `Arc`).
    pub fn latency_prior(&self) -> Box<dyn Fn(usize) -> f64 + Send + Sync> {
        let arch = Arc::clone(&self.arch);
        let config = self.config;
        let fleet = self.fleet.clone();
        Box::new(move |k| Self::latency_of(&*arch, &config, &fleet.static_profile(k)))
    }

    /// Draws initial global parameters deterministically from the run seed.
    pub fn initial_params(&self) -> Vec<f32> {
        let mut rng = rng_from_seed(fedlps_tensor::split_seed(self.config.seed, 0x1217));
        self.arch.init_params(&mut rng)
    }

    /// The accuracy of a parameter vector on every client's local *training*
    /// data — used to seed the bandits' `a^{−1}` baseline.
    pub fn initial_training_accuracy(&self, params: &[f32]) -> Vec<f64> {
        (0..self.num_clients())
            .map(|k| self.arch.evaluate(params, self.train_data(k)).accuracy)
            .collect()
    }

    /// Mean personalized test accuracy of a *single shared* parameter vector
    /// across all clients (the deployment model of the conventional and
    /// heterogeneous sparse-training baselines).
    pub fn global_model_accuracy(&self, params: &[f32]) -> f64 {
        let mut acc = 0.0;
        let mut n = 0usize;
        for k in 0..self.num_clients() {
            let stats = self.arch.evaluate(params, self.test_data(k));
            acc += stats.accuracy * stats.samples as f64;
            n += stats.samples;
        }
        if n == 0 {
            0.0
        } else {
            acc / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_env() -> FlEnv {
        FlEnv::from_scenario(
            &ScenarioConfig::tiny(DatasetKind::MnistLike),
            HeterogeneityLevel::High,
            FlConfig::tiny(),
        )
    }

    #[test]
    fn env_shapes_are_consistent() {
        let env = tiny_env();
        assert_eq!(env.num_clients(), 8);
        assert_eq!(env.capabilities().len(), 8);
        assert!(env.arch.param_count() > 0);
    }

    #[test]
    fn initial_params_are_deterministic() {
        let env = tiny_env();
        assert_eq!(env.initial_params(), env.initial_params());
    }

    #[test]
    fn text_scenario_uses_text_optimizer() {
        let env = FlEnv::from_scenario(
            &ScenarioConfig::tiny(DatasetKind::RedditLike),
            HeterogeneityLevel::Low,
            FlConfig::tiny(),
        );
        assert!(env.config.sgd.clip_norm.is_some());
    }

    #[test]
    fn expected_latencies_are_positive_and_scale_with_capability() {
        let env = tiny_env();
        let latencies = env.expected_latencies();
        assert_eq!(latencies.len(), env.num_clients());
        assert!(latencies.iter().all(|l| l.is_finite() && *l > 0.0));
        // The weakest tier pays the longest full-model round.
        let caps = env.capabilities();
        let slowest = (0..caps.len())
            .max_by(|&a, &b| latencies[a].total_cmp(&latencies[b]))
            .unwrap();
        let weakest = (0..caps.len())
            .min_by(|&a, &b| caps[a].total_cmp(&caps[b]))
            .unwrap();
        assert_eq!(caps[slowest], caps[weakest]);
    }

    #[test]
    fn initial_accuracies_are_probabilities() {
        let env = tiny_env();
        let params = env.initial_params();
        for a in env.initial_training_accuracy(&params) {
            assert!((0.0..=1.0).contains(&a));
        }
        let g = env.global_model_accuracy(&params);
        assert!((0.0..=1.0).contains(&g));
    }
}
