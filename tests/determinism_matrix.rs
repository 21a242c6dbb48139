//! The determinism contract as one in-process matrix.
//!
//! Each **row** of [`table`] is a semantic [`FlConfig`] — round mode ×
//! selection × topology × availability × faults × quorum — on a tiny FedLPS
//! federation; the two **columns** are `parallelism` 1 and 4. The sharded
//! cell's serialized [`RunResult`] must equal the serial cell byte for byte:
//! if an event were ever ordered by the thread schedule instead of virtual
//! time, the cells would diverge. (Packed ≡ masked-dense is not a run-level
//! axis — every eligible client trains packed — and is pinned where it is
//! decided: per architecture in `fedlps_nn`, per training loop in
//! `crates/sim/tests/proptest_packed.rs`, per client update in
//! `crates/core/tests/proptest_packed_client.rs`.)
//!
//! The reference cell of every row is also held to the laws that must hold
//! *inside* any run: cumulative columns are the running sums of their round
//! columns, clocks are monotone, per-mode and per-topology counters stay in
//! their lane, headline metrics stay in their domains, and the participation
//! census covers the fleet.
//!
//! The matrix runs on a static fleet; the Table II "Dyn" fleet (per-round
//! availability factors) has its own parallelism check below.

use fedlps::core::FedLps;
use fedlps::prelude::*;
use proptest::prelude::*;

/// A federation on the tiny MNIST-like scenario. The MLP is
/// narrower than the scenario default: it keeps the ~240 federations a run
/// of this file trains inside the tier-1 time budget in the debug profile,
/// and puts round spans (2–3 ms of virtual time) where the zone deadline and
/// the availability presets bite on some seeded fleets and not on others.
fn environment(config: FlConfig) -> FlEnv {
    let data = ScenarioConfig::tiny(DatasetKind::MnistLike).build();
    let fleet = DeviceFleet::sample(data.num_clients(), HeterogeneityLevel::High, config.seed);
    let arch = ModelKind::Mlp {
        hidden: vec![48, 24],
    }
    .build(data.input, data.num_classes);
    FlEnv::new(data, fleet, arch.into(), config)
}

fn simulator(config: FlConfig) -> Simulator {
    Simulator::new(environment(config))
}

/// FedLPS on `sim`.
fn run(sim: &Simulator) -> RunResult {
    let mut algo = FedLps::for_env(sim.env());
    sim.run(&mut algo)
}

fn label(c: &FlConfig) -> String {
    format!(
        "{}/{}/{}/{}/faults={}/quorum={}",
        c.round_mode.name(),
        c.selection.name(),
        c.topology.name(),
        c.availability.name(),
        c.faults.enabled(),
        c.quorum
    )
}

/// The semantic rows for one seed.
fn table(seed: u64) -> Vec<FlConfig> {
    let base = FlConfig {
        rounds: 3,
        clients_per_round: 3,
        local_iterations: 2,
        batch_size: 8,
        eval_every: 3,
        ..FlConfig::default()
    }
    .with_seed(seed);
    let sync = RoundMode::Synchronous;
    let asynchronous = RoundMode::asynchronous(3, 0.6);
    let modes = [sync, RoundMode::deadline(0.5, 2), asynchronous];
    let diurnal = AvailabilityModel::from_name("diurnal").expect("shipped preset");
    let burst = AvailabilityModel::from_name("burst").expect("shipped preset");
    let faults = FaultConfig {
        upload_failure_prob: 0.3,
        max_retries: 2,
        ..FaultConfig::default()
    };

    let mut rows = Vec::new();
    // Selection axis: cohorts, deadline over-selection and async refills all
    // route through the policy, so mode × policy covers every `select_*`
    // entry point. The uniform rows double as the flat / always-on baselines.
    for mode in modes {
        for selection in [
            SelectionKind::Uniform,
            SelectionKind::utility(),
            SelectionKind::PowerOfChoice,
        ] {
            rows.push(base.with_round_mode(mode).with_selection(selection));
        }
    }
    // A deadline sized from a synchronous probe, so it bites on some seeded
    // fleets and not on others.
    let worst = run(&simulator(base))
        .rounds
        .iter()
        .map(|r| r.round_time)
        .fold(0.0, f64::max);
    rows.push(base.with_round_mode(RoundMode::deadline(worst * 0.6, 2)));
    // Topology axis: the two-tier overlay in barrier and barrier-free modes,
    // then with a zone deadline in all three (async ignores zone deadlines,
    // so the same value exercises both semantics).
    for mode in [sync, asynchronous] {
        rows.push(
            base.with_round_mode(mode)
                .with_topology(Topology::two_tier()),
        );
    }
    for mode in modes {
        let zoned = Topology::two_tier().with_zone_deadline(0.002);
        rows.push(base.with_round_mode(mode).with_topology(zoned));
    }
    // Availability axis: diurnal waits in barrier and barrier-free modes,
    // plus the quorum early close riding on the diurnal barrier.
    for mode in [sync, asynchronous] {
        rows.push(base.with_round_mode(mode).with_availability(diurnal));
    }
    rows.push(base.with_availability(diurnal).with_quorum(0.6));
    // Fault schedules: correlated availability, upload retries and a quorum
    // together, in every mode under both topologies.
    for availability in [diurnal, burst] {
        for mode in modes {
            for topology in [Topology::Flat, Topology::two_tier()] {
                rows.push(
                    base.with_round_mode(mode)
                        .with_topology(topology)
                        .with_availability(availability)
                        .with_faults(faults)
                        .with_quorum(0.85),
                );
            }
        }
    }
    rows
}

/// Laws that hold inside any run, whatever the configuration.
fn assert_laws(env: &FlEnv, result: &RunResult) {
    let config = &env.config;
    let row = label(config);
    assert_eq!(result.rounds.len(), config.rounds, "{row}: full horizon");
    let is_async = matches!(config.round_mode, RoundMode::Async { .. });
    let is_sync = matches!(config.round_mode, RoundMode::Synchronous);
    let model_bytes = 4.0 * env.arch.param_count() as f64;
    let close = |running: f64, cumulative: f64| {
        (running - cumulative).abs() <= 1e-9 * running.abs().max(cumulative.abs())
    };
    let (mut time, mut flops, mut upload, mut start) = (0.0, 0.0, 0.0, 0.0);
    for r in &result.rounds {
        assert!(
            r.cumulative_time >= time && r.cumulative_flops >= flops,
            "{row}: round {} cumulative columns went backwards",
            r.round
        );
        assert!(r.cumulative_upload_bytes >= upload, "{row}: upload bytes");
        time += r.round_time;
        flops += r.round_flops;
        upload += r.round_upload_bytes;
        assert!(
            close(time, r.cumulative_time)
                && close(flops, r.cumulative_flops)
                && close(upload, r.cumulative_upload_bytes),
            "{row}: round {} cumulative columns are not the running sums",
            r.round
        );
        assert!(
            r.round_start_time >= start && r.round_start_time <= r.cumulative_time,
            "{row}: round {} start time out of order",
            r.round
        );
        start = r.round_start_time;
        assert!(
            is_async || r.staleness_hist.is_empty(),
            "{row}: staleness outside async"
        );
        assert!(
            !is_sync || config.quorum < 1.0 || r.straggler_drops == 0,
            "{row}: a full barrier drops nobody (zone drops are zone accounting)"
        );
        match config.topology {
            Topology::Flat => assert!(
                r.zone_upload_bytes == 0.0 && r.zone_straggler_drops == 0,
                "{row}: zone traffic under the flat topology"
            ),
            Topology::TwoTier {
                zones,
                zone_deadline,
                ..
            } => {
                if is_async {
                    // Store-and-forward: the zone tier re-carries exactly the
                    // bytes that landed; failed attempts burn client airtime
                    // only.
                    assert!(
                        r.zone_upload_bytes <= r.round_upload_bytes
                            && (config.faults.enabled()
                                || r.zone_upload_bytes.to_bits() == r.round_upload_bytes.to_bits()),
                        "{row}: round {} async zone forwards differ from the landed uploads",
                        r.round
                    );
                } else {
                    assert!(
                        r.zone_upload_bytes <= zones as f64 * model_bytes,
                        "{row}: round {} zone pre-merging must cap ingress at one dense \
                         forward per zone",
                        r.round
                    );
                }
                assert!(
                    r.zone_straggler_drops == 0 || (!is_async && zone_deadline.is_some()),
                    "{row}: zone drops without a cohort-mode zone deadline"
                );
            }
        }
    }

    // Headline metrics stay in their domains.
    assert!(
        (0.0..=1.0).contains(&result.final_accuracy)
            && (result.final_accuracy..=1.0).contains(&result.best_accuracy),
        "{row}: accuracies out of range"
    );
    assert!(
        result.total_time > 0.0 && result.total_flops > 0.0,
        "{row}: nobody trained"
    );
    let ratio = result.mean_sparse_ratio();
    assert!(
        ratio > 0.0 && ratio <= 1.0,
        "{row}: mean sparse ratio {ratio}"
    );
    assert!(
        config.eval_every == 0 || result.rounds.last().unwrap().mean_accuracy.is_some(),
        "{row}: the last round is evaluated"
    );

    // The participation census covers the fleet; a barrier dispatches
    // exactly its cohort every round.
    let census = &result.client_participations;
    assert_eq!(census.len(), env.num_clients(), "{row}: census length");
    assert!(
        !is_sync || census.iter().sum::<u64>() == (config.rounds * config.clients_per_round) as u64,
        "{row}: synchronous dispatch count"
    );
}

proptest! {
    // Every case trains ~60 tiny federations, so the case count is pinned
    // — deliberately NOT scaled by the nightly PROPTEST_CASES crank, which
    // would turn this file into hours of training. The cheap bit-identity
    // properties underneath it take the crank instead: sharded aggregation
    // in `crates/core/tests/proptest_merge_tree.rs` and
    // `crates/core/tests/proptest_coverage.rs`, and the lazy fleet in
    // `crates/device/tests/proptest_lazy_fleet.rs`.
    #![proptest_config(ProptestConfig { cases: 4 })]

    #[test]
    fn every_row_is_bit_identical_across_wall_clock_variants(seed in 0u64..100_000) {
        for config in table(seed) {
            let sim = simulator(config);
            let reference = run(&sim);
            assert_laws(sim.env(), &reference);
            let reference = serde_json::to_string(&reference).expect("RunResult serializes");
            let sharded = serde_json::to_string(&run(&simulator(config.with_parallelism(4))))
                .expect("RunResult serializes");
            prop_assert_eq!(
                &reference,
                &sharded,
                "{} (seed {}) diverged at parallelism 4",
                label(&config),
                seed
            );
        }
    }
}

/// The Table II "Dyn" fleet through the driver: its per-round availability
/// factors are pure draws keyed by `(seed, client, round)`, so the trace is
/// bit-identical at parallelism 1 and 4, and they reach the run: the trace
/// differs from the same run on the static fleet.
#[test]
fn dynamic_fleet_is_bit_identical_across_parallelism_and_moves_the_trace() {
    let trace = |config: FlConfig, dynamic: bool| {
        let mut env = environment(config);
        if dynamic {
            env.fleet = env.fleet.clone().with_dynamics();
        }
        serde_json::to_string(&run(&Simulator::new(env))).expect("RunResult serializes")
    };
    let base = FlConfig {
        rounds: 3,
        clients_per_round: 3,
        local_iterations: 2,
        batch_size: 8,
        eval_every: 3,
        ..FlConfig::default()
    };
    for mode in [RoundMode::Synchronous, RoundMode::asynchronous(3, 0.6)] {
        let config = base.with_round_mode(mode);
        let dynamic = trace(config, true);
        assert_eq!(
            dynamic,
            trace(config.with_parallelism(4), true),
            "{}: the dynamic fleet diverged at parallelism 4",
            mode.name()
        );
        assert_ne!(
            dynamic,
            trace(config, false),
            "{}: availability dynamics left the trace unchanged",
            mode.name()
        );
    }
}
