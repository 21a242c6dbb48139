//! The virtual-time claims of the event-driven runtime, on one heterogeneous
//! 64-client fleet.
//!
//! The runtime exists to answer a question the synchronous loop cannot: how
//! much *virtual* wall-clock does straggler tolerance buy at a given
//! accuracy? Every number here is simulated time, so the orderings are
//! deterministic on any machine: deadline and async rounds reach a shared
//! accuracy target sooner than the barrier, utility selection shifts
//! participation toward fast tiers, under a day/night availability wave
//! utility selection finishes the horizon before uniform does, and zone
//! aggregators re-time rounds without changing the learned model.

use std::sync::OnceLock;

use fedlps::prelude::*;

const ROUNDS: usize = 12;

/// The fleet's baseline configuration: synchronous rounds, uniform
/// selection, always-on availability, flat topology.
fn fleet_config() -> FlConfig {
    FlConfig {
        rounds: ROUNDS,
        clients_per_round: 8,
        local_iterations: 3,
        batch_size: 16,
        eval_every: 2,
        ..FlConfig::default()
    }
}

fn fleet_sim(config: FlConfig) -> Simulator {
    let scenario = ScenarioConfig::small(DatasetKind::MnistLike).with_clients(64);
    Simulator::new(FlEnv::from_scenario(
        &scenario,
        HeterogeneityLevel::High,
        config,
    ))
}

fn run(config: FlConfig) -> RunResult {
    let sim = fleet_sim(config);
    let mut algo = FedLps::for_env(sim.env());
    sim.run(&mut algo)
}

/// The synchronous always-on runs every claim is measured against, trained once
/// per policy and shared by the tests of this file.
fn sync_uniform() -> &'static RunResult {
    static RUN: OnceLock<RunResult> = OnceLock::new();
    RUN.get_or_init(|| run(fleet_config()))
}

fn sync_utility() -> &'static RunResult {
    static RUN: OnceLock<RunResult> = OnceLock::new();
    RUN.get_or_init(|| run(fleet_config().with_selection(SelectionKind::utility())))
}

#[test]
fn deadline_and_async_rounds_reach_the_target_before_the_barrier() {
    let sync = sync_uniform();
    let worst_round = sync.rounds.iter().map(|r| r.round_time).fold(0.0, f64::max);
    let deadline = run(fleet_config().with_round_mode(RoundMode::deadline(worst_round * 0.5, 8)));
    let async_run = run(fleet_config().with_round_mode(RoundMode::asynchronous(4, 0.6)));

    let target = 0.95
        * sync
            .best_accuracy
            .min(deadline.best_accuracy)
            .min(async_run.best_accuracy);
    let tta = |r: &RunResult| {
        r.time_to_accuracy(target)
            .expect("every mode reaches 95% of the weakest best accuracy")
    };
    let (t_sync, t_deadline, t_async) = (tta(sync), tta(&deadline), tta(&async_run));
    assert!(
        t_deadline < t_sync,
        "deadline rounds must reach {target:.3} accuracy in less virtual time \
         ({t_deadline} vs {t_sync})"
    );
    assert!(
        t_async < t_sync,
        "async rounds must reach {target:.3} accuracy in less virtual time \
         ({t_async} vs {t_sync})"
    );
    assert!(
        deadline.total_straggler_drops() > 0,
        "a half-worst-round budget must drop stragglers on a High fleet"
    );
}

#[test]
fn utility_selection_shifts_participation_toward_fast_tiers() {
    let caps = fleet_sim(fleet_config()).env().capabilities();
    let fast_share = |r: &RunResult| {
        r.participation_shares()
            .iter()
            .zip(&caps)
            .filter(|(_, &z)| z >= 0.5)
            .map(|(s, _)| s)
            .sum::<f64>()
    };
    let (uniform, utility) = (fast_share(sync_uniform()), fast_share(sync_utility()));
    assert!(
        utility > uniform,
        "utility selection must shift participation toward fast tiers \
         ({utility:.3} vs {uniform:.3})"
    );
}

/// Two slow day/night cycles over the always-on horizon, half of each period
/// offline, per-client phases. The barrier waits out every outage its cohort
/// dispatches into; a slow wave is *predictable* — a client observed waiting
/// last round is probably still near its night, its inflated observed
/// latency depresses the tracker's pessimistic speed term — so utility
/// selection routes the next cohort around it while uniform keeps
/// dispatching into the night.
#[test]
fn utility_selection_beats_uniform_under_a_diurnal_wave() {
    let diurnal = AvailabilityModel::Diurnal {
        period: sync_uniform().total_time / 2.0,
        phase_spread: 1.0,
        night_offline: 0.5,
    };
    let wave_uniform = run(fleet_config().with_availability(diurnal));
    let wave_utility = run(fleet_config()
        .with_selection(SelectionKind::utility())
        .with_availability(diurnal));
    for (name, wave, always_on) in [
        ("uniform", &wave_uniform, sync_uniform()),
        ("utility", &wave_utility, sync_utility()),
    ] {
        assert!(
            wave.total_unavailable_dispatches() > 0 && wave.total_unavailable_wait_seconds() > 0.0,
            "the wave must catch some {name} dispatches"
        );
        assert!(
            wave.total_time > always_on.total_time,
            "the wave must cost {name} selection virtual time"
        );
    }
    assert!(
        wave_utility.total_time < wave_uniform.total_time,
        "utility selection must beat uniform under the day/night wave ({} vs {})",
        wave_utility.total_time,
        wave_uniform.total_time
    );
}

/// Zone aggregators change where the bytes go and when rounds close, never
/// the math: without a zone deadline the two-tier barrier absorbs the flat
/// run's arithmetic round for round and only adds the combined zone →
/// server forwards; a zone deadline then cuts stragglers at their zone and
/// buys virtual time back.
#[test]
fn two_tier_zones_retime_rounds_without_changing_the_learned_model() {
    let flat = sync_uniform();
    let patient = run(fleet_config().with_topology(Topology::two_tier()));
    assert_eq!(flat.final_accuracy, patient.final_accuracy);
    for (f, t) in flat.rounds.iter().zip(&patient.rounds) {
        assert_eq!(f.mean_accuracy, t.mean_accuracy, "round {}", f.round);
        assert_eq!(f.train_loss.to_bits(), t.train_loss.to_bits());
        assert_eq!(f.round_flops.to_bits(), t.round_flops.to_bits());
        assert_eq!(
            f.round_upload_bytes.to_bits(),
            t.round_upload_bytes.to_bits()
        );
        assert_eq!(f.straggler_drops, t.straggler_drops);
        assert!(
            t.zone_upload_bytes > 0.0,
            "round {} forwarded nothing",
            t.round
        );
    }
    assert!(patient.total_time >= flat.total_time);

    let worst_round = flat.rounds.iter().map(|r| r.round_time).fold(0.0, f64::max);
    let strict =
        run(fleet_config()
            .with_topology(Topology::two_tier().with_zone_deadline(worst_round * 0.6)));
    assert!(
        strict.total_zone_straggler_drops() > 0,
        "a sub-worst-round zone deadline must cut someone on a High fleet"
    );
    assert!(
        strict.total_time < patient.total_time,
        "zone deadlines must buy virtual time ({} vs {})",
        strict.total_time,
        patient.total_time
    );
}
