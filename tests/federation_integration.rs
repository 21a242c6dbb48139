//! Cross-crate integration tests: full federations driven end-to-end through
//! the facade crate. Each test is the only tier-1 check of its claim — the
//! run laws live in `tests/determinism_matrix.rs`, the virtual-time orderings
//! in `tests/virtual_time_claims.rs`, the paper's table orderings in
//! `tests/paper_claims.rs` and every registered method's trace in
//! `tests/quickstart_goldens.rs`.

use fedlps::baselines::registry::baseline_by_name;
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

/// The only tier-1 training run on the cifar100-like and tiny-imagenet-like
/// scenarios.
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

/// The only tier-1 ordering of the fixed-ratio ablation against RCR.
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

/// The capability bound on learned ratios, checked through the facade on a
/// high-heterogeneity fleet (the crate-level twin is
/// `algorithm::tests::ratios_respect_capabilities`).
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

/// Figure 8's claim (`tests/paper_claims.rs` prints that artefact only).
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

/// The client-level tests show a personal model fits its own data; this is
/// the only check that it fits its own data better than a neighbour's.
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

/// The only tier-1 run at a million registered clients.
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
    ] {
        assert!(
            (1..=config.rounds * config.clients_per_round).contains(&count),
            "{name} materialized {count} entries: the population leaked into per-client state"
        );
    }
}
