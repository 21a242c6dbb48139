//! Cross-crate integration tests: full federations driven end-to-end through
//! the facade crate, checking the qualitative claims the paper's evaluation
//! rests on.

use fedlps::baselines::registry::{baseline_by_name, baseline_names};
use fedlps::core::{FedLps, FedLpsConfig};
use fedlps::prelude::*;

fn tiny_env(kind: DatasetKind, level: HeterogeneityLevel, rounds: usize) -> FlEnv {
    let scenario = ScenarioConfig::tiny(kind);
    let config = FlConfig {
        rounds,
        clients_per_round: 3,
        local_iterations: 3,
        batch_size: 10,
        eval_every: 2,
        ..FlConfig::default()
    };
    FlEnv::from_scenario(&scenario, level, config)
}

#[test]
fn fedlps_trains_on_every_dataset_scenario() {
    for kind in DatasetKind::all() {
        let env = tiny_env(kind, HeterogeneityLevel::High, 4);
        let sim = Simulator::new(env);
        let mut algo = FedLps::for_env(sim.env());
        let result = sim.run(&mut algo);
        assert_eq!(result.rounds.len(), 4, "{}", kind.name());
        assert!(result.final_accuracy.is_finite());
        assert!(result.total_flops > 0.0);
    }
}

#[test]
fn fedlps_beats_fedavg_under_pathological_noniid() {
    // cifar10-like is the scenario whose label skew hurts a shared global
    // model the most; the accuracy gap is decisive there even at tiny scale.
    let env = tiny_env(DatasetKind::Cifar10Like, HeterogeneityLevel::High, 10);
    let sim = Simulator::new(env);
    let mut fedlps = FedLps::for_env(sim.env());
    let fedlps_result = sim.run(&mut fedlps);

    let env2 = tiny_env(DatasetKind::Cifar10Like, HeterogeneityLevel::High, 10);
    let sim2 = Simulator::new(env2);
    let mut fedavg = baseline_by_name("FedAvg").unwrap();
    let fedavg_result = sim2.run(&mut *fedavg);

    assert!(
        fedlps_result.final_accuracy > fedavg_result.final_accuracy,
        "FedLPS {} should beat FedAvg {} on pathological non-IID data",
        fedlps_result.final_accuracy,
        fedavg_result.final_accuracy
    );
    assert!(
        fedlps_result.total_flops < fedavg_result.total_flops,
        "sparse training must cost fewer FLOPs than dense training"
    );
}

#[test]
fn every_registered_baseline_completes_a_federation() {
    for name in baseline_names() {
        let env = tiny_env(DatasetKind::MnistLike, HeterogeneityLevel::High, 3);
        let sim = Simulator::new(env);
        let mut algo = baseline_by_name(name).unwrap();
        let result = sim.run(&mut *algo);
        assert_eq!(result.rounds.len(), 3, "{name}");
        assert!(
            result.final_accuracy >= 0.0 && result.final_accuracy <= 1.0,
            "{name}"
        );
        assert!(result.total_time > 0.0, "{name}");
    }
}

#[test]
fn sparse_ratios_never_exceed_client_capability() {
    let env = tiny_env(DatasetKind::MnistLike, HeterogeneityLevel::High, 6);
    let caps = env.capabilities();
    let sim = Simulator::new(env);
    let mut algo = FedLps::for_env(sim.env());
    let _ = sim.run(&mut algo);
    for (k, ratio) in algo.proposed_ratios().iter().enumerate() {
        assert!(
            *ratio <= caps[k] + 1e-9,
            "client {k}: ratio {ratio} > capability {}",
            caps[k]
        );
    }
}

#[test]
fn run_results_serialize_and_round_trip() {
    let env = tiny_env(DatasetKind::MnistLike, HeterogeneityLevel::Low, 3);
    let sim = Simulator::new(env);
    let mut algo = FedLps::for_env(sim.env());
    let result = sim.run(&mut algo);
    let json = serde_json::to_string(&result).expect("serialize");
    let back: RunResult = serde_json::from_str(&json).expect("deserialize");
    // serde_json's default float parsing may be off by one ULP, so compare
    // structurally with a tolerance instead of bit-for-bit.
    assert_eq!(back.algorithm, result.algorithm);
    assert_eq!(back.dataset, result.dataset);
    assert_eq!(back.rounds.len(), result.rounds.len());
    assert!((back.final_accuracy - result.final_accuracy).abs() < 1e-9);
    assert!((back.total_flops - result.total_flops).abs() < 1.0);
    for (a, b) in back.rounds.iter().zip(result.rounds.iter()) {
        assert_eq!(a.round, b.round);
        assert!((a.cumulative_time - b.cumulative_time).abs() < 1e-9);
        assert_eq!(a.mean_accuracy.is_some(), b.mean_accuracy.is_some());
    }
}

#[test]
fn ablation_variants_run_and_differ_in_cost_profile() {
    // FLST at a small fixed ratio must spend fewer FLOPs than the RCR rule on
    // a strong fleet (where RCR trains near-dense submodels).
    let env = tiny_env(DatasetKind::MnistLike, HeterogeneityLevel::Low, 6);
    let sim = Simulator::new(env);
    let mut flst = FedLps::new(FedLpsConfig::flst(0.25));
    let flst_result = sim.run(&mut flst);

    let env2 = tiny_env(DatasetKind::MnistLike, HeterogeneityLevel::Low, 6);
    let sim2 = Simulator::new(env2);
    let mut rcr = FedLps::new(FedLpsConfig::rcr());
    let rcr_result = sim2.run(&mut rcr);

    assert!(flst_result.total_flops < rcr_result.total_flops);
}

#[test]
fn higher_heterogeneity_slows_dense_fl_more_than_fedlps() {
    let run_time = |name: &str, level: HeterogeneityLevel| -> f64 {
        let env = tiny_env(DatasetKind::MnistLike, level, 5);
        let sim = Simulator::new(env);
        if name == "FedLPS" {
            let mut algo = FedLps::for_env(sim.env());
            sim.run(&mut algo).total_time
        } else {
            let mut algo = baseline_by_name(name).unwrap();
            sim.run(&mut *algo).total_time
        }
    };
    let fedavg_growth = run_time("FedAvg", HeterogeneityLevel::High)
        / run_time("FedAvg", HeterogeneityLevel::Low).max(1e-9);
    let fedlps_growth = run_time("FedLPS", HeterogeneityLevel::High)
        / run_time("FedLPS", HeterogeneityLevel::Low).max(1e-9);
    assert!(
        fedlps_growth < fedavg_growth,
        "FedLPS time growth {fedlps_growth:.2}x should be smaller than FedAvg's {fedavg_growth:.2}x"
    );
}

#[test]
fn personalized_models_specialise_to_their_clients() {
    // A personalized FedLPS model evaluated on its own client's test data
    // should on average beat the same model evaluated on another client's data
    // (since the data distributions differ pathologically).
    let env = tiny_env(DatasetKind::MnistLike, HeterogeneityLevel::Low, 10);
    let sim = Simulator::new(env);
    let mut algo = FedLps::for_env(sim.env());
    let _ = sim.run(&mut algo);
    let env = sim.env();
    let mut own = Vec::new();
    let mut other = Vec::new();
    for k in 0..env.num_clients() {
        if let Some(personal) = &algo.client_state(k).personal_model {
            own.push(env.arch.evaluate(personal, env.test_data(k)).accuracy);
            let next = (k + 1) % env.num_clients();
            other.push(env.arch.evaluate(personal, env.test_data(next)).accuracy);
        }
    }
    assert!(!own.is_empty());
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&own) > mean(&other),
        "own-client accuracy {:.3} should exceed cross-client accuracy {:.3}",
        mean(&own),
        mean(&other)
    );
}

#[test]
fn million_client_registry_materializes_only_its_participants() {
    // The O(active) memory contract, asserted by counting materialized
    // entries: four rounds of 16 clients touch at most 64 distinct
    // participants, and every per-client store must be bounded by that — six
    // orders of magnitude under the registered population. Evaluation is off:
    // a whole-federation sweep is the one intrinsically O(population) step.
    const POPULATION: usize = 1_000_000;
    let scenario = ScenarioConfig::small(DatasetKind::MnistLike).with_clients(64);
    let data = scenario.build();
    let fleet = DeviceFleet::lazy(POPULATION, HeterogeneityLevel::High, 7);
    let arch = ModelKind::for_dataset(scenario.kind).build(data.input, data.num_classes);
    let config = FlConfig {
        rounds: 4,
        clients_per_round: 16,
        local_iterations: 2,
        batch_size: 8,
        eval_every: 0,
        ..FlConfig::default()
    };
    let sim = Simulator::new(FlEnv::new_tiled(data, fleet, arch.into(), config));
    let mut algo = FedLps::for_env(sim.env());
    let result = sim.run(&mut algo);
    assert_eq!(sim.env().num_clients(), POPULATION);
    assert_eq!(result.rounds.len(), config.rounds);
    for (name, count) in [
        ("fleet profiles", sim.env().fleet.materialized_profiles()),
        ("bandit arms", algo.materialized_arms()),
        ("client states", algo.materialized_clients()),
        (
            "mask-cache entries",
            algo.mask_cache().map_or(0, |c| c.len()),
        ),
    ] {
        assert!(
            (1..=config.rounds * config.clients_per_round).contains(&count),
            "{name} materialized {count} entries: the population leaked into per-client state"
        );
    }
}
