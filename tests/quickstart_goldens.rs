//! Golden traces: the metrics JSON of whole runs, byte-compared against
//! `tests/goldens/`, each captured before the refactor it guards.
//!
//! * `quickstart64_*` — the quickstart configuration at 64 clients in each
//!   of the three round modes. They pin that small-population runs over the
//!   sparse per-client stores are bit-identical to the historical dense
//!   traces, and that `Topology::Flat` — spelled explicitly below — is a true
//!   pass-through.
//! * `baseline_tiny_*` — every registered baseline on a tiny federation,
//!   synchronous and asynchronous (so each family's stale-absorb path is
//!   covered), captured from the per-family `FlAlgorithm` impls before the
//!   families moved onto one round skeleton. Hermes shares LotteryFL's
//!   schedule and so its golden, up to the `algorithm` field.
//! * `fedlps_tiny_*` — FedLPS on the same tiny federation in both modes: the
//!   default P-UCBV configuration, the RCR and fixed-ratio controllers and
//!   the cache-bypassing random pattern, so mask-cache hits, misses and
//!   bypasses are all covered. Captured before FedLPS became a family on
//!   that skeleton.
//! * `registry_tiny_*` — FedLPS on a 10 000-client `DeviceFleet::lazy`
//!   registry tiled over the tiny federation's shards (synchronous with
//!   uniform selection, asynchronous with utility selection), captured before
//!   the fleet, the selection latency prior and the ratio controller each
//!   dropped their second representation. `registry_tiny_faulted` runs the
//!   registry under `registry_1m_cold`'s axes (asynchronous, utility
//!   selection, two-tier topology, diurnal availability, 20 % upload
//!   failures) and `registry_tiny_flst025` runs `FedLpsConfig::flst(0.25)`
//!   on it; both were captured before the bandit's initial-accuracy
//!   baseline became a once-per-shard value that fixed-ratio policies skip.
//! * `cnn_tiny_*` — FedLPS and HeteroFL on the tiny cifar10-like federation
//!   (a two-block ConvNet, packed training, evaluation every second round) in
//!   both modes, captured before the ConvNet forward pass was rewritten.
//! * `reddit_tiny_*` — FedLPS and FedAvg on the tiny reddit-like federation
//!   (an LSTM language model, whose unit ranges overlap, trained by SGD with
//!   gradient-norm clipping) in both modes, captured before FedLPS's packed
//!   local step stopped walking the full model every iteration.
//!
//! Every tiny, registry, CNN and reddit row also asserts that the four-shard run equals the serial one.
//!
//! To regenerate after an *intentional* trace change (which must be called out
//! in the PR description), run:
//!
//! ```text
//! FEDLPS_UPDATE_GOLDENS=1 cargo test --test quickstart_goldens
//! ```

use fedlps::prelude::*;

/// The quickstart example's configuration, scaled to 64 clients.
fn quickstart64_env(round_mode: RoundMode) -> FlEnv {
    let scenario = ScenarioConfig::small(DatasetKind::MnistLike).with_clients(64);
    let fl_config = FlConfig {
        rounds: 20,
        clients_per_round: 5,
        local_iterations: 5,
        batch_size: 20,
        eval_every: 2,
        round_mode,
        // Explicit, not defaulted: these goldens are the byte-identity proof
        // for the flat topology.
        topology: Topology::Flat,
        ..FlConfig::default()
    };
    FlEnv::from_scenario(&scenario, HeterogeneityLevel::High, fl_config)
}

fn run_json(env: FlEnv, make: &dyn Fn(&FlEnv) -> Box<dyn FlAlgorithm>) -> String {
    let sim = Simulator::new(env);
    let mut algo = make(sim.env());
    let result = sim.run(&mut *algo);
    serde_json::to_string(&result).expect("RunResult serializes")
}

fn fedlps_for(env: &FlEnv) -> Box<dyn FlAlgorithm> {
    Box::new(FedLps::for_env(env))
}

/// Byte-compares the run's metrics JSON against `tests/goldens/{name}.json`
/// (or rewrites the golden under `FEDLPS_UPDATE_GOLDENS`) and returns it.
/// Either way the JSON must survive a `RunResult` round trip byte for byte.
fn check_golden(name: &str, env: FlEnv, make: &dyn Fn(&FlEnv) -> Box<dyn FlAlgorithm>) -> String {
    let json = run_json(env, make);
    let back: RunResult = serde_json::from_str(&json).expect("RunResult deserializes");
    assert_eq!(
        serde_json::to_string(&back).expect("RunResult serializes"),
        json,
        "{name}: the metrics JSON does not round-trip through RunResult"
    );

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.json"));
    if std::env::var("FEDLPS_UPDATE_GOLDENS").is_ok() {
        std::fs::create_dir_all(path.parent().expect("goldens dir")).expect("mkdir goldens");
        std::fs::write(&path, &json).expect("golden is writable");
        return json;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        json, golden,
        "metrics JSON for {name} diverged from the pre-refactor golden; if the \
         trace change is intentional, regenerate with FEDLPS_UPDATE_GOLDENS=1"
    );
    json
}

#[test]
fn quickstart64_sync_matches_pre_refactor_golden() {
    check_golden(
        "quickstart64_sync",
        quickstart64_env(RoundMode::Synchronous),
        &fedlps_for,
    );
}

#[test]
fn quickstart64_deadline_matches_pre_refactor_golden() {
    check_golden(
        "quickstart64_deadline",
        quickstart64_env(RoundMode::deadline(0.004, 2)),
        &fedlps_for,
    );
}

#[test]
fn quickstart64_async_matches_pre_refactor_golden() {
    check_golden(
        "quickstart64_async",
        quickstart64_env(RoundMode::asynchronous(4, 0.6)),
        &fedlps_for,
    );
}

/// `make`'s run on `env(parallelism)`: the serial trace must equal the
/// golden, and the four-shard trace the serial one. Returns the trace.
fn check_parallel_golden(
    golden: &str,
    env: &dyn Fn(usize) -> FlEnv,
    make: &dyn Fn(&FlEnv) -> Box<dyn FlAlgorithm>,
) -> String {
    let serial = check_golden(golden, env(1), make);
    assert_eq!(
        serial,
        run_json(env(4), make),
        "{golden} diverges between parallelism 1 and 4"
    );
    serial
}

/// The tiny `dataset` federation in `round_mode`.
fn tiny_env(dataset: DatasetKind, round_mode: RoundMode, parallelism: usize) -> FlEnv {
    FlEnv::from_scenario(
        &ScenarioConfig::tiny(dataset),
        HeterogeneityLevel::High,
        FlConfig::tiny()
            .with_round_mode(round_mode)
            .with_parallelism(parallelism),
    )
}

/// `make`'s run on the tiny `dataset` federation in `round_mode`.
fn check_tiny_golden(
    golden: &str,
    dataset: DatasetKind,
    round_mode: RoundMode,
    make: &dyn Fn(&FlEnv) -> Box<dyn FlAlgorithm>,
) -> String {
    check_parallel_golden(golden, &|p| tiny_env(dataset, round_mode, p), make)
}

/// `make`'s run on a 10 000-client lazy registry tiled over the tiny
/// federation's shards under `config`, with evaluation off: the lazily built
/// fleet, latency prior and per-client controller streams, pinned bit for
/// bit.
fn check_registry_golden(
    golden: &str,
    config: FlConfig,
    make: &dyn Fn(&FlEnv) -> Box<dyn FlAlgorithm>,
) {
    let env = |parallelism| {
        let config = FlConfig {
            eval_every: 0,
            ..config
        }
        .with_parallelism(parallelism);
        let scenario = ScenarioConfig::tiny(DatasetKind::MnistLike);
        let data = scenario.build();
        let fleet = DeviceFleet::lazy(10_000, HeterogeneityLevel::High, config.seed);
        let arch = ModelKind::for_dataset(scenario.kind).build(data.input, data.num_classes);
        FlEnv::new_tiled(data, fleet, arch.into(), config)
    };
    check_parallel_golden(golden, &env, make);
}

#[test]
fn registry_tiny_sync_matches_pre_refactor_golden() {
    check_registry_golden(
        "registry_tiny_sync",
        FlConfig::tiny()
            .with_round_mode(RoundMode::Synchronous)
            .with_selection(SelectionKind::Uniform),
        &fedlps_for,
    );
}

#[test]
fn registry_tiny_async_matches_pre_refactor_golden() {
    check_registry_golden(
        "registry_tiny_async",
        FlConfig::tiny()
            .with_round_mode(RoundMode::asynchronous(3, 0.5))
            .with_selection(SelectionKind::utility()),
        &fedlps_for,
    );
}

#[test]
fn registry_tiny_faulted_matches_pre_refactor_golden() {
    let config = FlConfig {
        topology: Topology::two_tier(),
        availability: AvailabilityModel::from_name("diurnal").expect("shipped preset"),
        faults: FaultConfig {
            upload_failure_prob: 0.2,
            ..FaultConfig::none()
        },
        ..FlConfig::tiny()
    }
    .with_round_mode(RoundMode::asynchronous(3, 0.5))
    .with_selection(SelectionKind::utility());
    check_registry_golden("registry_tiny_faulted", config, &fedlps_for);
}

#[test]
fn registry_tiny_flst025_matches_pre_refactor_golden() {
    check_registry_golden(
        "registry_tiny_flst025",
        FlConfig::tiny()
            .with_round_mode(RoundMode::Synchronous)
            .with_selection(SelectionKind::Uniform),
        &|_: &FlEnv| Box::new(FedLps::new(FedLpsConfig::flst(0.25))),
    );
}

/// Every baseline of the registry on the tiny federation in `round_mode`.
/// Hermes runs LotteryFL's published schedule under its own name, so it has
/// no golden of its own: at parallelism 1 and 4 its trace must be
/// LotteryFL's with the `algorithm` field renamed.
fn check_baseline_goldens(mode_name: &str, round_mode: RoundMode) {
    let mut lottery_fl = String::new();
    for name in baseline_names().into_iter().filter(|&n| n != "Hermes") {
        let make = |_: &FlEnv| baseline_by_name(name).expect("registered baseline");
        let json = check_tiny_golden(
            &format!("baseline_tiny_{name}_{mode_name}"),
            DatasetKind::MnistLike,
            round_mode,
            &make,
        );
        if name == "LotteryFL" {
            lottery_fl = json;
        }
    }
    let lottery_name = "\"algorithm\":\"LotteryFL\"";
    assert_eq!(lottery_fl.matches(lottery_name).count(), 1, "{mode_name}");
    let hermes_golden = lottery_fl.replace(lottery_name, "\"algorithm\":\"Hermes\"");
    let hermes = |_: &FlEnv| baseline_by_name("Hermes").expect("registered baseline");
    for parallelism in [1, 4] {
        assert_eq!(
            run_json(
                tiny_env(DatasetKind::MnistLike, round_mode, parallelism),
                &hermes
            ),
            hermes_golden,
            "Hermes {mode_name} at parallelism {parallelism} is not LotteryFL's trace"
        );
    }
}

/// FedLPS on the tiny federation in `round_mode`, once per mask-cache path:
/// P-UCBV ratios (hits and misses), the rigid RCR and fixed-ratio
/// controllers, and a random pattern that bypasses the cache.
fn check_fedlps_goldens(mode_name: &str, round_mode: RoundMode) {
    // `None` is `FedLps::for_env`, the paper's default sized to the run.
    let variants = [
        ("default", None),
        ("rcr", Some(FedLpsConfig::rcr())),
        ("flst050", Some(FedLpsConfig::flst(0.5))),
        (
            "random050",
            Some(FedLpsConfig::with_pattern(PatternStrategy::Random, 0.5)),
        ),
    ];
    for (variant, config) in variants {
        let make = |env: &FlEnv| -> Box<dyn FlAlgorithm> {
            Box::new(match &config {
                Some(config) => FedLps::new(config.clone()),
                None => FedLps::for_env(env),
            })
        };
        check_tiny_golden(
            &format!("fedlps_tiny_{variant}_{mode_name}"),
            DatasetKind::MnistLike,
            round_mode,
            &make,
        );
    }
}

/// FedLPS and HeteroFL (packed ConvNet training) on the tiny cifar10-like
/// federation in `round_mode`, evaluating every second round.
fn check_cnn_goldens(mode_name: &str, round_mode: RoundMode) {
    check_tiny_golden(
        &format!("cnn_tiny_fedlps_{mode_name}"),
        DatasetKind::Cifar10Like,
        round_mode,
        &fedlps_for,
    );
    check_tiny_golden(
        &format!("cnn_tiny_HeteroFL_{mode_name}"),
        DatasetKind::Cifar10Like,
        round_mode,
        &|_: &FlEnv| baseline_by_name("HeteroFL").expect("registered baseline"),
    );
}

/// FedLPS and FedAvg on the tiny reddit-like federation (LSTM, clipped
/// SGD) in `round_mode`.
fn check_reddit_goldens(mode_name: &str, round_mode: RoundMode) {
    check_tiny_golden(
        &format!("reddit_tiny_fedlps_{mode_name}"),
        DatasetKind::RedditLike,
        round_mode,
        &fedlps_for,
    );
    check_tiny_golden(
        &format!("reddit_tiny_FedAvg_{mode_name}"),
        DatasetKind::RedditLike,
        round_mode,
        &|_: &FlEnv| baseline_by_name("FedAvg").expect("registered baseline"),
    );
}

#[test]
fn reddit_tiny_sync_matches_pre_refactor_goldens() {
    check_reddit_goldens("sync", RoundMode::Synchronous);
}

#[test]
fn reddit_tiny_async_matches_pre_refactor_goldens() {
    check_reddit_goldens("async", RoundMode::asynchronous(3, 0.5));
}

#[test]
fn cnn_tiny_sync_matches_pre_refactor_goldens() {
    check_cnn_goldens("sync", RoundMode::Synchronous);
}

#[test]
fn cnn_tiny_async_matches_pre_refactor_goldens() {
    check_cnn_goldens("async", RoundMode::asynchronous(3, 0.5));
}

#[test]
fn fedlps_sync_matches_pre_refactor_goldens() {
    check_fedlps_goldens("sync", RoundMode::Synchronous);
}

#[test]
fn fedlps_async_matches_pre_refactor_goldens() {
    check_fedlps_goldens("async", RoundMode::asynchronous(3, 0.5));
}

#[test]
fn baselines_sync_match_pre_refactor_goldens() {
    check_baseline_goldens("sync", RoundMode::Synchronous);
}

#[test]
fn baselines_async_match_pre_refactor_goldens() {
    check_baseline_goldens("async", RoundMode::asynchronous(3, 0.5));
}
