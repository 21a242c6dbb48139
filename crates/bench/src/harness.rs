//! Experiment execution helpers shared by all artefacts.

use fedlps_baselines::registry::baseline_by_name;
use fedlps_core::{FedLps, FedLpsConfig};
use fedlps_data::partition::PartitionStrategy;
use fedlps_data::scenario::DatasetKind;
use fedlps_device::HeterogeneityLevel;
use fedlps_sim::env::FlEnv;
use fedlps_sim::metrics::RunResult;
use fedlps_sim::runner::Simulator;

use crate::scale::Scale;

/// A fully specified experiment environment: scale + dataset + heterogeneity
/// (+ optional non-IID override for the Figure 6 sweep).
#[derive(Debug, Clone)]
pub struct ExperimentEnv {
    pub scale: Scale,
    pub dataset: DatasetKind,
    pub heterogeneity: HeterogeneityLevel,
    pub partition_override: Option<PartitionStrategy>,
    /// Enables per-round availability fluctuations (the "Dyn" rows of
    /// Table II).
    pub dynamic_capability: bool,
    pub seed: u64,
}

impl ExperimentEnv {
    /// The paper's default setting for a dataset: pathological non-IID with
    /// the high heterogeneity fleet.
    pub fn paper_default(scale: Scale, dataset: DatasetKind) -> Self {
        Self {
            scale,
            dataset,
            heterogeneity: HeterogeneityLevel::High,
            partition_override: None,
            dynamic_capability: false,
            seed: 42,
        }
    }

    /// Builds the simulator environment.
    pub fn build(&self) -> FlEnv {
        let mut scenario = self.scale.scenario(self.dataset).with_seed(self.seed);
        if let Some(p) = self.partition_override {
            scenario = scenario.with_partition(p);
        }
        let config = self.scale.fl_config().with_seed(self.seed);
        let mut env = FlEnv::from_scenario(&scenario, self.heterogeneity, config);
        if self.dynamic_capability {
            env.fleet = env.fleet.clone().with_dynamics();
        }
        env
    }
}

/// Runs FedLPS (default configuration sized for the environment) and returns
/// its metric trace.
pub fn run_fedlps(env: &ExperimentEnv) -> RunResult {
    let sim = Simulator::new(env.build());
    let mut algo = FedLps::for_env(sim.env());
    sim.run(&mut algo)
}

/// Runs FedLPS with an explicit configuration (ablations).
pub fn run_fedlps_with(env: &ExperimentEnv, config: FedLpsConfig) -> RunResult {
    let sim = Simulator::new(env.build());
    let mut algo = FedLps::new(config);
    sim.run(&mut algo)
}

/// Runs a method by name: `"FedLPS"` or any baseline registered in
/// [`fedlps_baselines::registry`].
pub fn run_method(name: &str, env: &ExperimentEnv) -> RunResult {
    if name.eq_ignore_ascii_case("fedlps") {
        return run_fedlps(env);
    }
    let mut algo = baseline_by_name(name)
        .unwrap_or_else(|| panic!("unknown method '{name}'; see baseline_names()"));
    let sim = Simulator::new(env.build());
    sim.run(&mut *algo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fedlps_and_a_baseline_run_at_quick_scale() {
        // The headline qualitative claim at the heart of the paper: on a
        // pathological non-IID, highly heterogeneous federation, FedLPS's
        // personalized sparse models beat the shared dense FedAvg model while
        // spending far fewer FLOPs. The cifar10-like scenario is where the
        // label-skew gap is decisive even at quick scale.
        let env = ExperimentEnv::paper_default(Scale::Quick, DatasetKind::Cifar10Like);
        let fedlps = run_fedlps(&env);
        assert_eq!(fedlps.algorithm, "FedLPS");
        assert!(fedlps.final_accuracy > 0.0);
        let fedavg = run_method("FedAvg", &env);
        assert_eq!(fedavg.algorithm, "FedAvg");
        assert!(fedlps.final_accuracy > fedavg.final_accuracy);
        assert!(fedlps.total_flops < fedavg.total_flops);
        // And it clearly beats the width-scaling heterogeneous baseline that
        // shares a single inference model across non-IID clients.
        let heterofl = run_method("HeteroFL", &env);
        assert!(fedlps.final_accuracy > heterofl.final_accuracy);
    }

    #[test]
    #[should_panic]
    fn unknown_method_panics() {
        let env = ExperimentEnv::paper_default(Scale::Quick, DatasetKind::MnistLike);
        let _ = run_method("NotAMethod", &env);
    }

    #[test]
    fn figure_method_list_contains_fedlps_and_is_runnable_by_name() {
        let methods = crate::artefacts::FIGURE_METHODS;
        assert!(methods.contains(&"FedLPS"));
        for m in &methods {
            if *m != "FedLPS" {
                assert!(baseline_by_name(m).is_some(), "{m}");
            }
        }
    }
}
