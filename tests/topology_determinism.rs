//! The topology subsystem's semantic contract, at integration scale (that
//! two-tier traces are parallelism- and packing-invariant in every round
//! mode is a set of rows in `tests/determinism_matrix.rs`):
//!
//! * without a zone deadline, the two-tier synchronous run carries exactly
//!   the flat run's *learning* trace — the zone tier only re-times the
//!   uploads and adds the combined zone → server forwards;
//! * async two-tier is store-and-forward: the zone tier re-carries exactly
//!   the bytes that landed at the server.

use fedlps::prelude::*;

fn run(round_mode: RoundMode, topology: Topology) -> RunResult {
    let scenario = ScenarioConfig::tiny(DatasetKind::MnistLike);
    let fl_config = FlConfig::tiny()
        .with_round_mode(round_mode)
        .with_topology(topology);
    let env = FlEnv::from_scenario(&scenario, HeterogeneityLevel::High, fl_config);
    let sim = Simulator::new(env);
    let mut fedlps = fedlps::core::FedLps::for_env(sim.env());
    sim.run(&mut fedlps)
}

#[test]
fn two_tier_without_zone_deadline_keeps_the_flat_learning_trace_in_sync() {
    let flat = run(RoundMode::Synchronous, Topology::Flat);
    let tiered = run(RoundMode::Synchronous, Topology::two_tier());

    // The learning trajectory is untouched: same absorbed arithmetic.
    assert_eq!(flat.final_accuracy, tiered.final_accuracy);
    for (f, t) in flat.rounds.iter().zip(tiered.rounds.iter()) {
        assert_eq!(f.mean_accuracy, t.mean_accuracy);
        assert_eq!(f.train_loss.to_bits(), t.train_loss.to_bits());
        assert_eq!(f.round_flops.to_bits(), t.round_flops.to_bits());
        assert_eq!(
            f.round_upload_bytes.to_bits(),
            t.round_upload_bytes.to_bits()
        );
        assert_eq!(f.straggler_drops, t.straggler_drops);
    }

    // What changes is the physical journey: every round pays the combined
    // zone → server forwards, so the zone tier carries traffic and the
    // simulated clock runs at least as long.
    assert_eq!(flat.total_zone_upload_bytes(), 0.0);
    assert!(tiered.total_zone_upload_bytes() > 0.0);
    assert_eq!(
        tiered.total_zone_straggler_drops(),
        0,
        "no zone deadline set"
    );
    assert!(tiered.total_time >= flat.total_time);
    assert!(tiered
        .rounds
        .iter()
        .all(|r| r.zone_upload_bytes > 0.0 && r.zone_straggler_drops == 0));
}

#[test]
fn async_two_tier_forwards_every_landed_upload_individually() {
    let result = run(RoundMode::asynchronous(4, 0.6), Topology::two_tier());
    // Store-and-forward: the zone tier re-carries exactly the bytes that
    // landed at the server (no barrier to pre-merge behind).
    for r in &result.rounds {
        assert_eq!(
            r.zone_upload_bytes.to_bits(),
            r.round_upload_bytes.to_bits()
        );
        assert_eq!(r.zone_straggler_drops, 0, "async has no zone deadlines");
    }
    assert!(result.total_zone_upload_bytes() > 0.0);
}
