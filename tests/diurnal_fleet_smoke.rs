//! Smoke test mirroring `examples/diurnal_fleet.rs` at reduced scale, so the
//! example's code path (i.i.d. vs diurnal availability, transient upload
//! faults, quorum-based early closes) is exercised by `cargo test` and
//! cannot silently rot.

use fedlps::core::FedLps;
use fedlps::prelude::*;

fn run_once(availability: AvailabilityModel, quorum: f64) -> RunResult {
    let scenario = ScenarioConfig::tiny(DatasetKind::MnistLike).with_clients(6);
    let fl_config = FlConfig {
        rounds: 4,
        clients_per_round: 3,
        local_iterations: 2,
        batch_size: 8,
        eval_every: 2,
        ..FlConfig::default()
    }
    .with_availability(availability)
    .with_quorum(quorum)
    .with_faults(FaultConfig {
        upload_failure_prob: 0.3,
        max_retries: 2,
        ..FaultConfig::default()
    });
    let env = FlEnv::from_scenario(&scenario, HeterogeneityLevel::High, fl_config);
    let sim = Simulator::new(env);
    let mut algo = FedLps::for_env(sim.env());
    sim.run(&mut algo)
}

#[test]
fn diurnal_fleet_code_path_runs_end_to_end() {
    // Probe the always-on run to size a wave that the fleet must hit.
    let iid = run_once(AvailabilityModel::Iid, 1.0);
    let diurnal = AvailabilityModel::Diurnal {
        period: iid.total_time / 3.0,
        phase_spread: 1.0,
        night_offline: 0.5,
    };
    let wavy = run_once(diurnal, 1.0);
    let quorum = run_once(diurnal, 0.5);

    // Every run covers the full horizon with sane headline metrics.
    for (name, result) in [("iid", &iid), ("diurnal", &wavy), ("quorum", &quorum)] {
        assert_eq!(result.rounds.len(), 4, "{name}");
        assert_eq!(result.algorithm, "FedLPS", "{name}");
        assert!((0.0..=1.0).contains(&result.final_accuracy), "{name}");
        assert!(result.total_time > 0.0, "{name}");
    }

    // The example's headline effects, at miniature scale:
    // i.i.d. availability never waits; a half-night wave must catch someone.
    assert_eq!(iid.total_unavailable_dispatches(), 0);
    assert!(wavy.total_unavailable_dispatches() > 0);
    assert!(wavy.total_unavailable_wait_seconds() > 0.0);
    assert!(wavy.total_time > iid.total_time);

    // The quorum closes synchronous rounds early instead of waiting the
    // night out, dropping the tail of each cohort.
    assert!(quorum.total_quorum_closes() > 0);
    assert!(quorum.total_time < wavy.total_time);
    assert!(quorum.total_straggler_drops() > 0);

    // p=0.3 transient faults over the run must retry at least once, and the
    // drop histogram's causes add up to the totals the metrics report.
    assert!(iid.total_retry_attempts() > 0);
    let causes = iid.drop_causes();
    let histogram_total: u64 = causes.iter().map(|(_, n)| n).sum();
    assert_eq!(
        histogram_total,
        iid.total_straggler_drops()
            + iid.total_zone_straggler_drops()
            + iid.total_stale_discards()
            + iid.total_upload_failure_drops()
    );

    // The faulted path replays exactly for a seed (the across-parallelism
    // matrix lives in tests/determinism_matrix.rs).
    assert_eq!(run_once(diurnal, 0.5), quorum);
}
