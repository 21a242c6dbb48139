//! Straggler-tolerant rounds: the same heterogeneous federation under the
//! three execution semantics of the event-driven runtime, side by side.
//!
//! Synchronous rounds pay Eq. (18)'s straggler tax — the 1/16-tier devices
//! gate every round. Deadline rounds over-select and cut the stragglers
//! loose; async rounds absorb updates as they arrive with a staleness
//! discount. Both reach the same accuracy in far less *virtual* time, which
//! is exactly the time-to-accuracy axis of the paper's Figures 4-5.
//!
//! ```text
//! cargo run --release --example straggler_rounds
//! ```

use fedlps::core::FedLps;
use fedlps::prelude::*;

fn run_once(mode: RoundMode) -> RunResult {
    let scenario = ScenarioConfig::small(DatasetKind::MnistLike).with_clients(64);
    let fl_config = FlConfig {
        rounds: 12,
        clients_per_round: 8,
        local_iterations: 4,
        batch_size: 16,
        eval_every: 2,
        ..FlConfig::default()
    }
    .with_round_mode(mode);
    let env = FlEnv::from_scenario(&scenario, HeterogeneityLevel::High, fl_config);
    let sim = Simulator::new(env);
    let mut algo = FedLps::for_env(sim.env());
    sim.run(&mut algo)
}

fn main() {
    // Probe the synchronous baseline first: its worst round sizes the
    // deadline budget (half the straggler-gated round time).
    let sync = run_once(RoundMode::Synchronous);
    let worst_round = sync.rounds.iter().map(|r| r.round_time).fold(0.0, f64::max);
    let deadline = run_once(RoundMode::deadline(worst_round * 0.5, 8));
    let async_run = run_once(RoundMode::asynchronous(4, 0.6));

    // A target every mode reaches: 95% of the weakest best accuracy.
    let target = 0.95
        * sync
            .best_accuracy
            .min(deadline.best_accuracy)
            .min(async_run.best_accuracy);

    println!("FedLPS on a 64-client high-heterogeneity fleet (tiers 1 .. 1/16)");
    println!(
        "time-to-accuracy target: {:.1}% mean personalized accuracy\n",
        target * 100.0
    );
    println!(
        "{:<10} {:>9} {:>12} {:>10} {:>8} {:>10}",
        "mode", "acc (%)", "time (s)", "tta (s)", "drops", "staleness"
    );
    for (name, result) in [
        ("sync", &sync),
        ("deadline", &deadline),
        ("async", &async_run),
    ] {
        println!(
            "{:<10} {:>9.2} {:>12.3} {:>10} {:>8} {:>10.2}",
            name,
            result.final_accuracy * 100.0,
            result.total_time,
            result
                .time_to_accuracy(target)
                .map(|t| format!("{t:.3}"))
                .unwrap_or_else(|| "never".into()),
            result.total_straggler_drops(),
            result.mean_staleness(),
        );
    }

    println!(
        "\ndeadline budget: {:.3}s (half the worst synchronous round of {:.3}s)",
        worst_round * 0.5,
        worst_round
    );
    println!(
        "async staleness histogram (updates absorbed at staleness s): {:?}",
        async_run.staleness_histogram()
    );
    println!(
        "\nExpected shape: all three modes land comparable accuracy, but the \
         deadline and async runs cross the target in a fraction of the \
         synchronous virtual time because no round waits for a 1/16-tier \
         straggler to finish."
    );
    let tta = |r: &RunResult| {
        r.time_to_accuracy(target)
            .expect("every mode reaches the target")
    };
    assert!(
        tta(&deadline) < tta(&sync) && tta(&async_run) < tta(&sync),
        "deadline and async rounds must cross the target before the barrier"
    );
}
