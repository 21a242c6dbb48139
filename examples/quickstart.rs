//! Quickstart: train FedLPS on a small synthetic non-IID federation with a
//! heterogeneous device fleet and print the headline metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Two environment variables are read: `FEDLPS_PARALLELISM` sets the
//! round-loop shard count (a host-resource setting; default 1 = serial, 0 =
//! all cores) and `FEDLPS_METRICS_JSON` names a file to which the full
//! `RunResult` is written as JSON. Runs are bit-identical for the same seed
//! at every parallelism level, which `tests/determinism_matrix.rs` proves in
//! process across round modes, selection policies, topologies, availability
//! models and fault schedules. Each of those axes has its own example:
//! `straggler_rounds` (round modes), `utility_selection` (selection
//! policies), `hierarchical_fleet` (topologies) and `diurnal_fleet`
//! (availability, faults, quorum).

use fedlps::prelude::*;

fn main() {
    // Panic on a set-but-unparsable value instead of silently falling back
    // to serial.
    let parallelism: usize = match std::env::var("FEDLPS_PARALLELISM") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("FEDLPS_PARALLELISM must be a shard count, got {v:?}")),
        Err(_) => 1,
    };
    // 1. A synthetic MNIST-like federation: 16 clients, pathological non-IID
    //    (2 classes per client), with devices sampled from the paper's five
    //    capability tiers.
    let scenario = ScenarioConfig::small(DatasetKind::MnistLike).with_clients(16);
    let fl_config = FlConfig {
        rounds: 20,
        clients_per_round: 5,
        local_iterations: 5,
        batch_size: 20,
        eval_every: 2,
        parallelism,
        ..FlConfig::default()
    };
    let env = FlEnv::from_scenario(&scenario, HeterogeneityLevel::High, fl_config);

    println!(
        "federation: {} clients, {} classes, model '{}' with {} parameters",
        env.num_clients(),
        env.data.num_classes,
        env.arch.name(),
        env.arch.param_count()
    );

    // 2. Run FedLPS: learnable importance-driven sparse patterns + P-UCBV
    //    adaptive sparse ratios.
    let sim = Simulator::new(env);
    let mut fedlps = fedlps::core::FedLps::for_env(sim.env());
    let result = sim.run(&mut fedlps);

    // 3. Report what the paper's Table I reports: mean personalized accuracy,
    //    total FLOPs and total simulated time.
    println!("\n== {} on {} ==", result.algorithm, result.dataset);
    println!(
        "final mean personalized accuracy: {:.2}%",
        result.final_accuracy * 100.0
    );
    println!(
        "best accuracy observed:           {:.2}%",
        result.best_accuracy * 100.0
    );
    println!(
        "total training FLOPs:             {:.2}e9",
        result.total_flops / 1e9
    );
    println!(
        "total simulated time:             {:.2}s",
        result.total_time
    );
    println!(
        "mean sparse ratio used:           {:.2}",
        result.mean_sparse_ratio()
    );
    println!(
        "round-loop parallelism:           {} shard(s)",
        sim.env().config.effective_parallelism()
    );
    let hits: u64 = result.rounds.iter().map(|r| r.mask_cache_hits).sum();
    let misses: u64 = result.rounds.iter().map(|r| r.mask_cache_misses).sum();
    println!(
        "mask cache:                       {hits} hits / {misses} misses ({:.0}% hit rate, {:.0}% after round 3)",
        result.mask_cache_hit_rate() * 100.0,
        result.mask_cache_hit_rate_from(3) * 100.0
    );

    println!("\nper-client sparse ratios proposed by P-UCBV after training:");
    for (k, ratio) in fedlps.proposed_ratios().iter().enumerate() {
        let cap = sim.env().capability(k);
        println!("  client {k:>2}: capability {cap:>6.4} -> ratio {ratio:.3}");
    }

    // Machine-readable trace for scripting and diffing.
    if let Ok(path) = std::env::var("FEDLPS_METRICS_JSON") {
        let json = serde_json::to_string(&result).expect("RunResult serializes");
        std::fs::write(&path, json).expect("metrics JSON is writable");
        println!("\nwrote metrics JSON to {path}");
    }
}
