//! Client-selection policies on a heterogeneous fleet: uniform vs Oort-style
//! utility selection vs power-of-choice.
//!
//! ```text
//! cargo run --release --example utility_selection
//! ```
//!
//! The run trains FedLPS on the same 32-client High-heterogeneity federation
//! under each [`SelectionKind`] and prints what the policy changed: final
//! accuracy, total virtual time, time-to-accuracy against a shared target and
//! — the selection layer's signature — how round participation distributes
//! over the five device capability tiers. Uniform selection spreads
//! dispatches evenly; utility selection shifts share toward the fast tiers
//! (its Eq. (14) speed term shortens the round critical path) while its
//! exploration fraction keeps the slow tiers sampled; power-of-choice sits in
//! between, chasing training loss alone.
//!
//! All three policies run through the same event-driven driver and are
//! bit-identical at every `FlConfig::parallelism` setting (rows of
//! `tests/determinism_matrix.rs` prove it in every round mode).

use fedlps::device::CapabilityTier;
use fedlps::prelude::*;

fn run_policy(selection: SelectionKind) -> (RunResult, Vec<f64>) {
    let scenario = ScenarioConfig::small(DatasetKind::MnistLike).with_clients(32);
    let fl_config = FlConfig {
        rounds: 12,
        clients_per_round: 6,
        local_iterations: 4,
        batch_size: 16,
        eval_every: 3,
        selection,
        ..FlConfig::default()
    };
    let env = FlEnv::from_scenario(&scenario, HeterogeneityLevel::High, fl_config);
    let capabilities = env.capabilities();
    let sim = Simulator::new(env);
    let mut fedlps = fedlps::core::FedLps::for_env(sim.env());
    let result = sim.run(&mut fedlps);
    (result, capabilities)
}

/// Sums the participation share of each capability tier.
fn tier_shares(result: &RunResult, capabilities: &[f64]) -> Vec<(CapabilityTier, f64)> {
    let shares = result.participation_shares();
    CapabilityTier::all()
        .into_iter()
        .map(|tier| {
            let share = shares
                .iter()
                .zip(capabilities)
                .filter(|(_, &z)| CapabilityTier::from_fraction(z) == tier)
                .map(|(s, _)| s)
                .sum::<f64>();
            (tier, share)
        })
        .collect()
}

fn main() {
    let policies = [
        SelectionKind::Uniform,
        SelectionKind::utility(),
        SelectionKind::PowerOfChoice,
    ];
    let runs: Vec<(SelectionKind, RunResult, Vec<f64>)> = policies
        .into_iter()
        .map(|kind| {
            let (result, capabilities) = run_policy(kind);
            (kind, result, capabilities)
        })
        .collect();

    // A target every policy reaches: 95% of the weakest best accuracy.
    let target = 0.95
        * runs
            .iter()
            .map(|(_, r, _)| r.best_accuracy)
            .fold(f64::INFINITY, f64::min);

    println!("selection policies on a 32-client High-heterogeneity fleet\n");
    for (kind, result, capabilities) in &runs {
        println!("== {} ==", kind.name());
        println!(
            "final accuracy {:.2}% | total virtual time {:.3}s | time to {:.1}% accuracy: {}",
            result.final_accuracy * 100.0,
            result.total_time,
            target * 100.0,
            result
                .time_to_accuracy(target)
                .map_or("never".into(), |t| format!("{t:.3}s")),
        );
        println!(
            "mean selection utility {:.3} | distinct participants {} of {}",
            result.mean_selection_utility(),
            result.total_first_time_participants(),
            capabilities.len()
        );
        println!("participation share by device tier:");
        for (tier, share) in tier_shares(result, capabilities) {
            let bar = "#".repeat((share * 50.0).round() as usize);
            println!(
                "  z = {:>6.4}: {:>5.1}%  {}",
                tier.fraction(),
                share * 100.0,
                bar
            );
        }
        println!();
    }

    let share_of = |kind_name: &str, tier: CapabilityTier| {
        runs.iter()
            .find(|(k, _, _)| k.name() == kind_name)
            .map(|(_, r, c)| {
                tier_shares(r, c)
                    .into_iter()
                    .find(|(t, _)| *t == tier)
                    .map_or(0.0, |(_, s)| s)
            })
            .unwrap_or(0.0)
    };
    let (uniform, utility) = (
        share_of("uniform", CapabilityTier::Full),
        share_of("utility", CapabilityTier::Full),
    );
    println!(
        "full-tier share: uniform {:.1}% -> utility {:.1}% (the Eq. 14 speed term at work)",
        uniform * 100.0,
        utility * 100.0,
    );
    assert!(
        utility > uniform,
        "utility selection must favour the full tier"
    );
}
