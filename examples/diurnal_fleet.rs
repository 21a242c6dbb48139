//! Correlated availability: the same federation with always-on clients and
//! under a diurnal (day/night) availability wave, with transient upload
//! faults and quorum-based graceful degradation.
//!
//! Always-on clients are the classic simulator simplification; real fleets
//! go offline in *correlated* waves — devices share time zones,
//! charging habits and network outages. Under a wave, a synchronous barrier
//! keeps dispatching into the night and waits entire outages out. This
//! example shows the two mitigation knobs the fault subsystem adds:
//!
//! * **deadline rounds** cut clients that dispatch into an outage;
//! * **a quorum** (`FlConfig::quorum`) closes the barrier once a fraction of
//!   the cohort has reported, bounding the tail without dropping rounds.
//!
//! On top of the availability axis, every upload here has a transient
//! failure probability with retry + exponential backoff, so the drop
//! histogram separates deadline stragglers from exhausted retries.
//!
//! ```text
//! cargo run --release --example diurnal_fleet
//! ```

use fedlps::core::FedLps;
use fedlps::prelude::*;

fn run_once(availability: AvailabilityModel, mode: RoundMode, quorum: f64) -> RunResult {
    let scenario = ScenarioConfig::small(DatasetKind::MnistLike).with_clients(64);
    let fl_config = FlConfig {
        rounds: 12,
        clients_per_round: 8,
        local_iterations: 4,
        batch_size: 16,
        eval_every: 2,
        ..FlConfig::default()
    }
    .with_round_mode(mode)
    .with_availability(availability)
    .with_quorum(quorum)
    .with_faults(FaultConfig {
        upload_failure_prob: 0.15,
        max_retries: 2,
        ..FaultConfig::default()
    });
    let env = FlEnv::from_scenario(&scenario, HeterogeneityLevel::High, fl_config);
    let sim = Simulator::new(env);
    let mut algo = FedLps::for_env(sim.env());
    sim.run(&mut algo)
}

fn main() {
    // Probe with always-on clients to size the diurnal period:
    // roughly four day/night cycles over the whole run, 40% of each spent
    // offline, phases spread across the fleet (not one shared time zone).
    let always_on_sync = run_once(AvailabilityModel::AlwaysOn, RoundMode::Synchronous, 1.0);
    let diurnal = AvailabilityModel::Diurnal {
        period: always_on_sync.total_time / 4.0,
        phase_spread: 1.0,
        night_offline: 0.4,
    };
    let worst_round = always_on_sync
        .rounds
        .iter()
        .map(|r| r.round_time)
        .fold(0.0, f64::max);
    let deadline = RoundMode::deadline(worst_round * 0.5, 4);

    let configs = [
        (
            "always-on / sync",
            AvailabilityModel::AlwaysOn,
            RoundMode::Synchronous,
            1.0,
        ),
        ("diurnal / sync", diurnal, RoundMode::Synchronous, 1.0),
        (
            "diurnal / sync+quorum",
            diurnal,
            RoundMode::Synchronous,
            0.75,
        ),
        ("diurnal / deadline", diurnal, RoundMode::Synchronous, 1.0),
    ];

    println!("FedLPS, 64 clients, transient upload faults (p=0.15, 2 retries)");
    println!(
        "diurnal wave: period {:.3}s, 40% night, phases spread over the fleet\n",
        always_on_sync.total_time / 4.0
    );
    println!(
        "{:<22} {:>9} {:>11} {:>9} {:>8} {:>8} {:>8}",
        "config", "acc (%)", "time (s)", "waits (s)", "retries", "drops", "quorum"
    );
    let mut total_time = Vec::new();
    for (name, availability, mode, quorum) in configs {
        let mode = if name.ends_with("deadline") {
            deadline
        } else {
            mode
        };
        let result = run_once(availability, mode, quorum);
        total_time.push(result.total_time);
        println!(
            "{:<22} {:>9.2} {:>11.3} {:>9.3} {:>8} {:>8} {:>8}",
            name,
            result.final_accuracy * 100.0,
            result.total_time,
            result.total_unavailable_wait_seconds(),
            result.total_retry_attempts(),
            result.total_straggler_drops() + result.total_upload_failure_drops(),
            result.total_quorum_closes(),
        );
        if name == "diurnal / deadline" {
            println!("\n  drop histogram of the deadline run:");
            for (cause, count) in result.drop_causes() {
                if count > 0 {
                    println!("    {cause:<20} {count}");
                }
            }
        }
    }

    println!(
        "\nExpected shape: the diurnal synchronous run pays for every outage \
         it dispatches into (the waits column), while the quorum and deadline \
         variants close rounds without the night-bound tail — far less \
         virtual time at comparable accuracy. Every run, always-on or diurnal, \
         is bit-identical across parallelism, backend and topology settings."
    );
    let [_, wave, wave_quorum, wave_deadline] = total_time[..] else {
        unreachable!("one time per config")
    };
    assert!(
        wave_quorum < wave && wave_deadline < wave,
        "quorum and deadline closes must beat the diurnal barrier on virtual time"
    );
}
