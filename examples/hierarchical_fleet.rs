//! Hierarchical edge aggregation: the same federation uploading flat versus
//! through a two-tier zone-aggregator topology.
//!
//! Under `Topology::TwoTier`, every client is deterministically assigned to
//! a zone aggregator. In a synchronous round each zone buffers its clients'
//! sparse uploads and forwards **one combined dense residual** to the
//! server, priced by the zone's (faster) uplink in the Eq. (14) cost model —
//! so the server-side ingress shrinks from `clients × sparse-upload` to
//! `zones × dense-model`. An optional per-zone deadline cuts intra-zone
//! stragglers loose *at the zone*, visible as `zone_straggler_drops` in the
//! round metrics.
//!
//! The learning trace itself is untouched: the topology overlays timing,
//! traffic and drops only, and absorption stays the canonical ascending
//! walk (`tests/determinism_matrix.rs` compares two-tier traces across
//! parallelism levels to prove it).
//!
//! ```text
//! cargo run --release --example hierarchical_fleet
//! ```

use fedlps::core::FedLps;
use fedlps::prelude::*;

fn run_once(topology: Topology) -> RunResult {
    let scenario = ScenarioConfig::small(DatasetKind::MnistLike).with_clients(64);
    let fl_config = FlConfig {
        rounds: 12,
        clients_per_round: 32,
        local_iterations: 4,
        batch_size: 16,
        eval_every: 2,
        ..FlConfig::default()
    }
    .with_topology(topology);
    let env = FlEnv::from_scenario(&scenario, HeterogeneityLevel::High, fl_config);
    let sim = Simulator::new(env);
    let mut algo = FedLps::for_env(sim.env());
    sim.run(&mut algo)
}

fn main() {
    // Probe the flat baseline first: its worst round (the slowest selected
    // client) sizes the per-zone deadline for the third run.
    let flat = run_once(Topology::Flat);
    let worst_round = flat.rounds.iter().map(|r| r.round_time).fold(0.0, f64::max);
    let zone_deadline = worst_round * 0.6;

    // Two-tier, patient: every upload waits out its zone, the server only
    // ever sees one combined forward per zone.
    let tiered = run_once(Topology::two_tier().with_zones(4).with_zone_uplink(4.0));
    // Two-tier, impatient: zones cut their own stragglers loose.
    let strict = run_once(
        Topology::two_tier()
            .with_zones(4)
            .with_zone_uplink(4.0)
            .with_zone_deadline(zone_deadline),
    );

    println!("FedLPS on a 64-client high-heterogeneity fleet, 32 clients/round");
    println!(
        "zone deadline for the strict run: {:.4}s (60% of the worst flat round)\n",
        zone_deadline
    );
    println!(
        "{:<16} {:>9} {:>12} {:>16} {:>16} {:>11}",
        "topology", "acc (%)", "time (s)", "client->zone MB", "zone->server MB", "zone drops"
    );
    for (name, result) in [
        ("flat", &flat),
        ("two-tier", &tiered),
        ("two-tier+ddl", &strict),
    ] {
        println!(
            "{:<16} {:>9.2} {:>12.3} {:>16.3} {:>16.3} {:>11}",
            name,
            result.final_accuracy * 100.0,
            result.total_time,
            result.total_upload_bytes / 1e6,
            result.total_zone_upload_bytes() / 1e6,
            result.total_zone_straggler_drops(),
        );
    }

    let saving = flat.total_upload_bytes / tiered.total_zone_upload_bytes().max(1.0);
    println!(
        "\nserver ingress saving from zone pre-merging: {saving:.1}x \
         (32 sparse client uploads collapse into 4 dense zone forwards)"
    );
    println!(
        "accuracy is identical for flat and patient two-tier ({:.2}% vs {:.2}%): \
         the zone tier re-routes bytes and re-times rounds, never the math.",
        flat.final_accuracy * 100.0,
        tiered.final_accuracy * 100.0
    );
    println!(
        "the strict run dropped {} uploads at zone deadlines — stragglers now \
         cost their zone, not the whole round.",
        strict.total_zone_straggler_drops()
    );
    assert_eq!(flat.final_accuracy, tiered.final_accuracy);
    assert!(
        saving > 1.0,
        "zone pre-merging must shrink the server ingress"
    );
}
