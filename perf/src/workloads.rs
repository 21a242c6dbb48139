//! The four reference workloads. Names are final: later issues cite them.
//!
//! Every input is derived from `--seed`; the simulator only ever sees the
//! generated [`FlEnv`].

use std::sync::Arc;

use fedlps_core::{FedLps, FedLpsConfig};
use fedlps_data::scenario::{DatasetKind, ScenarioConfig};
use fedlps_device::{DeviceFleet, HeterogeneityLevel};
use fedlps_faults::{AvailabilityModel, FaultConfig};
use fedlps_nn::model::{ModelArch, ModelKind};
use fedlps_sim::config::{FlConfig, RoundMode, SelectionKind, Topology};
use fedlps_sim::env::FlEnv;
use fedlps_sim::runner::Simulator;
use fedlps_tensor::split_seed;

/// Registered population of `registry_1m_cold`.
const REGISTRY: usize = 1_000_000;

/// One reference workload: what it is called, why it exists, how its inputs
/// are generated and which algorithm configuration runs on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fleet64Warm,
    CurvesCnnEval,
    SparseWideR025,
    Registry1mCold,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fleet64Warm,
        Workload::CurvesCnnEval,
        Workload::SparseWideR025,
        Workload::Registry1mCold,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet64Warm => "fleet64_warm",
            Workload::CurvesCnnEval => "curves_cnn_eval",
            Workload::SparseWideR025 => "sparse_wide_r025",
            Workload::Registry1mCold => "registry_1m_cold",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The synthetic dataset family the workload trains on.
    pub fn dataset(self) -> DatasetKind {
        match self {
            Workload::CurvesCnnEval => DatasetKind::Cifar10Like,
            _ => DatasetKind::MnistLike,
        }
    }

    /// How many timed repetitions `seconds` buys: the count is fixed from
    /// the workload's repetition time on the 2-core reference sandbox, not
    /// by a deadline, so that both sides of a comparison do the same work
    /// (peak RSS and in-process drift grow with the repetition count) and
    /// every count repeats exactly.
    pub fn reps_for(self, seconds: f64) -> usize {
        let nominal_rep_s = match self {
            Workload::Fleet64Warm => 0.75,
            Workload::CurvesCnnEval => 0.70,
            Workload::SparseWideR025 => 0.95,
            Workload::Registry1mCold => 0.80,
        };
        ((seconds / nominal_rep_s).round() as usize).max(5)
    }

    /// Whether the run evaluates the federation (`eval_every > 0`), so
    /// `RunResult::final_accuracy` is meaningful.
    pub fn evaluates(self) -> bool {
        self != Workload::Registry1mCold
    }

    /// Builds the workload's inputs from the benchmark seed: scenario seed,
    /// fleet seed and `FlConfig::seed` are three streams split from it.
    pub fn build(self, seed: u64) -> Simulator {
        let data_seed = split_seed(seed, 0xDA7A);
        let fleet_seed = split_seed(seed, 0xF1EE7);
        let base = FlConfig {
            seed: split_seed(seed, 0xC0FF),
            ..FlConfig::default()
        };
        let (shards, model, config) = match self {
            Workload::Fleet64Warm => (
                64,
                None,
                FlConfig {
                    rounds: 60,
                    clients_per_round: 16,
                    local_iterations: 5,
                    batch_size: 20,
                    eval_every: 60,
                    ..base
                },
            ),
            Workload::CurvesCnnEval => (
                32,
                None,
                FlConfig {
                    rounds: 16,
                    clients_per_round: 8,
                    local_iterations: 2,
                    batch_size: 20,
                    eval_every: 1,
                    ..base
                }
                .with_parallelism(2),
            ),
            Workload::SparseWideR025 => (
                32,
                Some(ModelKind::Mlp {
                    hidden: vec![512, 256],
                }),
                FlConfig {
                    rounds: 16,
                    clients_per_round: 8,
                    local_iterations: 5,
                    batch_size: 20,
                    eval_every: 16,
                    ..base
                },
            ),
            Workload::Registry1mCold => (
                64,
                None,
                FlConfig {
                    rounds: 32,
                    clients_per_round: 32,
                    local_iterations: 1,
                    batch_size: 4,
                    eval_every: 0,
                    round_mode: RoundMode::asynchronous(4, 0.6),
                    selection: SelectionKind::utility(),
                    topology: Topology::two_tier(),
                    availability: AvailabilityModel::from_name("diurnal")
                        .expect("diurnal is a shipped availability preset"),
                    faults: FaultConfig {
                        upload_failure_prob: 0.2,
                        ..FaultConfig::none()
                    },
                    ..base
                },
            ),
        };
        let kind = self.dataset();
        let data = ScenarioConfig::small(kind)
            .with_clients(shards)
            .with_seed(data_seed)
            .build();
        let arch: Arc<dyn ModelArch> = model
            .unwrap_or_else(|| ModelKind::for_dataset(kind))
            .build(data.input, data.num_classes)
            .into();
        let env = if self == Workload::Registry1mCold {
            let fleet = DeviceFleet::lazy(REGISTRY, HeterogeneityLevel::High, fleet_seed);
            FlEnv::new_tiled(data, fleet, arch, config)
        } else {
            let fleet = DeviceFleet::sample(shards, HeterogeneityLevel::High, fleet_seed);
            FlEnv::new(data, fleet, arch, config)
        };
        Simulator::new(env)
    }

    /// A fresh algorithm instance for one repetition.
    pub fn algorithm(self, env: &FlEnv) -> FedLps {
        match self {
            Workload::SparseWideR025 => FedLps::new(FedLpsConfig::flst(0.25)),
            _ => FedLps::for_env(env),
        }
    }
}
