//! Population-scale federation: one million registered clients, a
//! cohort-sized memory footprint.
//!
//! ```text
//! cargo run --release --example population_scale
//! ```
//!
//! Cross-device federated learning separates two numbers the small-scale
//! simulators conflate: the *registered population* (how many devices could
//! ever participate) and the *active cohort* (how many train per round). This
//! example makes the population a free axis:
//!
//! * [`DeviceFleet::lazy`] represents a million device profiles as a pure
//!   seeded function of the client id — bit-identical to what
//!   `DeviceFleet::sample` would have drawn at the same seed and size, but
//!   materializing only the profiles actually touched.
//! * [`FlEnv::new_tiled`] registers the lazy fleet over a 64-shard dataset
//!   pool, so data stays `O(shards)` while client ids range over the million.
//! * Every per-client store downstream — bandit arms, client states, cached
//!   masks, selection stats — materializes lazily on first participation.
//! * A client state holds its personal model on the packed submodel it
//!   trained, so the states cost `O(kept)` floats each, not `O(model)`.
//! * `eval_every: 0` disables whole-federation evaluation, the one operation
//!   that is intrinsically `O(population)`.
//!
//! The run below touches at most `rounds × clients_per_round` distinct
//! clients; the printed materialization counts stay at that scale — six
//! orders of magnitude below the registered population.

use std::sync::Arc;

use fedlps::prelude::*;

fn main() {
    const POPULATION: usize = 1_000_000;
    const SHARDS: usize = 64;

    // A 64-shard synthetic non-IID dataset pool; client k trains on shard
    // k % SHARDS.
    let scenario = ScenarioConfig::small(DatasetKind::MnistLike).with_clients(SHARDS);
    let data = scenario.build();
    let arch: Arc<dyn ModelArch> = ModelKind::for_dataset(scenario.kind)
        .build(data.input, data.num_classes)
        .into();

    // One million registered devices drawn lazily from the paper's five
    // capability tiers. Same seed + same size as a dense
    // `DeviceFleet::sample(POPULATION, ..)` would use, and any profile read
    // returns the identical tier — without allocating the other 999 936.
    let fleet = DeviceFleet::lazy(POPULATION, HeterogeneityLevel::High, 7);

    let config = FlConfig {
        rounds: 8,
        clients_per_round: 8,
        local_iterations: 3,
        batch_size: 16,
        eval_every: 0, // whole-federation evaluation is O(population): off
        ..FlConfig::default()
    };
    let env = FlEnv::new_tiled(data, fleet, arch, config);

    println!(
        "federation: {} registered clients over {} data shards, model '{}' ({} parameters)",
        env.num_clients(),
        env.data.num_clients(),
        env.arch.name(),
        env.arch.param_count()
    );

    let sim = Simulator::new(env);
    let mut fedlps = FedLps::for_env(sim.env());
    let result = sim.run(&mut fedlps);

    let active_bound = sim.env().config.rounds * sim.env().config.clients_per_round;
    println!("\n== {} at population scale ==", result.algorithm);
    println!("rounds completed:            {}", result.rounds.len());
    println!(
        "total training FLOPs:        {:.2}e9",
        result.total_flops / 1e9
    );
    println!("total simulated time:        {:.2}s", result.total_time);
    println!(
        "mean sparse ratio used:      {:.2}",
        result.mean_sparse_ratio()
    );

    println!("\nmaterialized per-client state (bound: {active_bound} possible participants):");
    println!(
        "  device profiles:           {:>6} of {POPULATION}",
        sim.env().fleet.materialized_profiles()
    );
    println!(
        "  bandit arms:               {:>6} of {POPULATION}",
        fedlps.materialized_arms()
    );
    println!(
        "  client training states:    {:>6} of {POPULATION}",
        fedlps.materialized_clients()
    );
    let full_models = fedlps.materialized_clients() * sim.env().arch.param_count();
    println!(
        "  personal-model floats:     {:>6} of {full_models} at full length",
        fedlps.personal_model_floats()
    );

    assert!(sim.env().fleet.materialized_profiles() <= active_bound);
    assert!(fedlps.materialized_clients() <= active_bound);
    assert!(fedlps.personal_model_floats() < full_models);
    println!("\nO(active) contract holds: the population never materialized.");
}
