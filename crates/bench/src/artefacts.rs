//! The one table of paper artefacts: every table and figure of the
//! evaluation section is printed by a row of [`ARTEFACTS`], run by name
//! through the `paper` binary (`paper --list` prints this table) and
//! iterated by `tests/paper_claims.rs`.
//!
//! Figures the paper plots from the same runs share one row, which trains
//! each federation once and emits every figure's table from the same
//! `RunResult`: Figures 3–4 (`fig3_4_convergence`), 7–8
//! (`fig7_8_heterogeneity`) and 9a–9b (`fig9_ratio_sweep`, whose 9b rows
//! are 9a's learnable-pattern runs). Table titles name the figure.

use fedlps_core::{FedLps, FedLpsConfig};
use fedlps_data::partition::PartitionStrategy;
use fedlps_data::scenario::DatasetKind;
use fedlps_device::capability::{REFERENCE_BANDWIDTH, REFERENCE_GFLOPS};
use fedlps_device::HeterogeneityLevel;
use fedlps_sim::config::{AvailabilityModel, FaultConfig, RoundMode, SelectionKind};
use fedlps_sim::metrics::RunResult;
use fedlps_sim::runner::Simulator;
use fedlps_sparse::pattern::PatternStrategy;

use crate::harness::{run_fedlps_with, run_method, ExperimentEnv};
use crate::scale::Scale;
use crate::table::{gflops, num, pct, secs, TableBuilder};

/// What one invocation asks of an artefact. `methods` / `datasets` are
/// `None` unless overridden on the command line, which
/// [`cli::parse`](crate::cli::parse) allows only for an artefact whose
/// [`Artefact::overrides`] lists the flag: the ones that sweep a method or
/// dataset list (Table I, Figures 3–4). Every other artefact ignores them.
#[derive(Debug, Clone)]
pub struct Request {
    pub scale: Scale,
    pub methods: Option<Vec<&'static str>>,
    pub datasets: Option<Vec<DatasetKind>>,
}

impl Request {
    /// The artefact's defaults at `scale`.
    pub fn at(scale: Scale) -> Self {
        Self {
            scale,
            methods: None,
            datasets: None,
        }
    }

    fn methods_or(&self, default: &[&'static str]) -> Vec<&'static str> {
        self.methods.clone().unwrap_or_else(|| default.to_vec())
    }

    fn datasets_or(&self, default: &[DatasetKind]) -> Vec<DatasetKind> {
        self.datasets.clone().unwrap_or_else(|| default.to_vec())
    }
}

/// A command-line override of an artefact's default method or dataset list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Override {
    /// `--methods`, into [`Request::methods`].
    Methods,
    /// `--datasets`, into [`Request::datasets`].
    Datasets,
}

impl Override {
    /// The command-line flag that sets it.
    pub fn flag(self) -> &'static str {
        match self {
            Override::Methods => "--methods",
            Override::Datasets => "--datasets",
        }
    }
}

/// Where an artefact hands each finished table: the binary prints it, the
/// claims test keeps it.
pub type Emit<'a> = &'a mut dyn FnMut(TableBuilder);

/// One table or figure of the paper's evaluation section.
#[derive(Debug)]
pub struct Artefact {
    /// The name given on the command line.
    pub name: &'static str,
    /// What the artefact shows, for `paper --list`.
    pub about: &'static str,
    /// The overrides its `run` honours; `paper` rejects any other.
    pub overrides: &'static [Override],
    /// Runs the experiment, emitting each table as it completes.
    pub run: fn(&Request, Emit<'_>),
}

/// The overrides of the artefacts that sweep a method and a dataset list.
const SWEEPS: &[Override] = &[Override::Methods, Override::Datasets];

/// Every artefact, in the paper's order.
pub const ARTEFACTS: &[Artefact] = &[
    Artefact {
        name: "table1",
        about: "Table I: accuracy, FLOPs and time of every method per dataset",
        overrides: SWEEPS,
        run: table1,
    },
    Artefact {
        name: "table2_ablation",
        about: "Table II: ablation (FLST / RCR / P-UCBV, fixed & dynamic capability)",
        overrides: &[],
        run: table2_ablation,
    },
    Artefact {
        name: "fig3_4_convergence",
        about: "Figures 3-4: accuracy vs cumulative FLOPs and vs simulated running time",
        overrides: SWEEPS,
        run: fig3_4_convergence,
    },
    Artefact {
        name: "fig5_tta",
        about: "Figure 5: time-to-accuracy on the CIFAR / Tiny-ImageNet analogues",
        overrides: &[],
        run: fig5_tta,
    },
    Artefact {
        name: "fig6_noniid_levels",
        about: "Figure 6: accuracy vs non-IID level (mnist-like)",
        overrides: &[],
        run: fig6_noniid_levels,
    },
    Artefact {
        name: "fig7_8_heterogeneity",
        about: "Figures 7-8: accuracy and running time vs system heterogeneity",
        overrides: &[],
        run: fig7_8_heterogeneity,
    },
    Artefact {
        name: "fig9_ratio_sweep",
        about: "Figure 9: pattern strategies (9a) and time breakdown (9b) vs fixed sparse ratio",
        overrides: &[],
        run: fig9_ratio_sweep,
    },
    Artefact {
        name: "fig10_availability",
        about: "Figure 10 (repro extension): round modes x selection under diurnal availability",
        overrides: &[],
        run: fig10_availability,
    },
];

/// The `paper --list` text: one `name  about` line per artefact.
pub fn listing() -> String {
    let width = ARTEFACTS.iter().map(|a| a.name.len()).max().unwrap_or(0);
    ARTEFACTS
        .iter()
        .map(|a| format!("{:<width$}  {}\n", a.name, a.about))
        .collect()
}

/// The methods of Table I's default sweep (`--methods` overrides it).
const TABLE1_METHODS: [&str; 15] = [
    "FedAvg",
    "FedProx",
    "REFL",
    "CS",
    "HeteroFL",
    "FedRolex",
    "FedMP",
    "Ditto",
    "FedPer",
    "Per-FedAvg",
    "LotteryFL",
    "Hermes",
    "FedSpa",
    "FedP3",
    "FedLPS",
];

/// The methods of the Figure 3–4 convergence curves (`--methods` overrides
/// it).
pub(crate) const FIGURE_METHODS: [&str; 7] = [
    "FedAvg",
    "REFL",
    "FedMP",
    "Per-FedAvg",
    "Hermes",
    "FedSpa",
    "FedLPS",
];

/// The personalized methods Figures 5–6 compare FedLPS against.
const PERSONALIZED_METHODS: [&str; 5] = ["FedPer", "Hermes", "FedSpa", "Per-FedAvg", "FedLPS"];

fn table1(req: &Request, emit: Emit<'_>) {
    let scale = req.scale;
    let methods = req.methods_or(&TABLE1_METHODS);
    for dataset in req.datasets_or(&[DatasetKind::MnistLike, DatasetKind::Cifar10Like]) {
        let env = ExperimentEnv::paper_default(scale, dataset);
        let mut table = TableBuilder::new(
            &format!("Table I — {} ({:?} scale)", dataset.name(), scale),
            &["Method", "Acc (%)", "FLOPs (1e9)", "Time (s)"],
        );
        for method in &methods {
            let result = run_method(method, &env);
            table.row(vec![
                result.algorithm.clone().into(),
                pct(result.final_accuracy),
                gflops(result.total_flops),
                secs(result.total_time),
            ]);
        }
        emit(table);
    }
}

/// Table II: the ablation of FedLPS's two learnable components.
///
/// * FLST — learnable pattern, fixed ratio 0.5 (no P-UCBV);
/// * RCR-Fix / P-UCBV-Fix — static device capabilities;
/// * RCR-Dyn / P-UCBV-Dyn — per-round dynamic available capability.
fn table2_ablation(req: &Request, emit: Emit<'_>) {
    let scale = req.scale;
    for dataset in [DatasetKind::MnistLike, DatasetKind::Cifar10Like] {
        let static_env = ExperimentEnv::paper_default(scale, dataset);
        let mut dynamic_env = static_env.clone();
        dynamic_env.dynamic_capability = true;

        let fl_cfg = scale.fl_config();
        let pucbv = || FedLpsConfig::for_federation(fl_cfg.rounds, fl_cfg.clients_per_round);

        let mut table = TableBuilder::new(
            &format!(
                "Table II — ablation on {} ({:?} scale)",
                dataset.name(),
                scale
            ),
            &["Variant", "Acc (%)", "FLOPs (1e9)"],
        );
        let cases: [(&str, FedLpsConfig, &ExperimentEnv); 5] = [
            ("FLST (fixed 0.5)", FedLpsConfig::flst(0.5), &static_env),
            ("RCR-Fix", FedLpsConfig::rcr(), &static_env),
            ("P-UCBV-Fix", pucbv(), &static_env),
            ("RCR-Dyn", FedLpsConfig::rcr(), &dynamic_env),
            ("P-UCBV-Dyn", pucbv(), &dynamic_env),
        ];
        for (label, cfg, env) in cases {
            let result = run_fedlps_with(env, cfg);
            table.row(vec![
                label.into(),
                pct(result.final_accuracy),
                gflops(result.total_flops),
            ]);
        }
        emit(table);
    }
}

/// Figures 3–4: one convergence curve per method, drawn from the same run
/// against cumulative FLOPs (Figure 3) and simulated running time
/// (Figure 4).
fn fig3_4_convergence(req: &Request, emit: Emit<'_>) {
    let methods = req.methods_or(&FIGURE_METHODS);
    for dataset in req.datasets_or(&[DatasetKind::MnistLike]) {
        let env = ExperimentEnv::paper_default(req.scale, dataset);
        let mut fig3 = TableBuilder::new(
            &format!("Figure 3 — accuracy vs FLOPs on {}", dataset.name()),
            &["Method", "FLOPs (1e9)", "Acc (%)"],
        );
        let mut fig4 = TableBuilder::new(
            &format!("Figure 4 — accuracy vs running time on {}", dataset.name()),
            &["Method", "Time (s)", "Acc (%)"],
        );
        for method in &methods {
            let result = run_method(method, &env);
            let name = || result.algorithm.as_str().into();
            for (flops, acc) in result.accuracy_vs_flops() {
                fig3.row(vec![name(), gflops(flops), pct(acc)]);
            }
            for (time, acc) in result.accuracy_vs_time() {
                fig4.row(vec![name(), secs(time), pct(acc)]);
            }
        }
        emit(fig3);
        emit(fig4);
    }
}

/// Figure 5: Time-To-Accuracy on the CIFAR-10 / CIFAR-100 / Tiny-ImageNet
/// analogues. The accuracy targets are set to 80% of FedLPS's own final
/// accuracy per dataset so the same relative bar applies across methods.
fn fig5_tta(req: &Request, emit: Emit<'_>) {
    let mut table = TableBuilder::new(
        "Figure 5 — Time-To-Accuracy",
        &["Dataset", "Target (%)", "Method", "TTA (s)"],
    );
    for dataset in [
        DatasetKind::Cifar10Like,
        DatasetKind::Cifar100Like,
        DatasetKind::TinyImagenetLike,
    ] {
        let env = ExperimentEnv::paper_default(req.scale, dataset);
        let fedlps = run_method("FedLPS", &env);
        let target = fedlps.final_accuracy * 0.8;
        for method in PERSONALIZED_METHODS {
            let result = if method == "FedLPS" {
                fedlps.clone()
            } else {
                run_method(method, &env)
            };
            let tta = result
                .time_to_accuracy(target)
                .map(|t| num(t, 2))
                .unwrap_or_else(|| "not reached".into());
            table.row(vec![
                dataset.name().into(),
                pct(target),
                result.algorithm.clone().into(),
                tta,
            ]);
        }
    }
    emit(table);
}

/// Figure 6: accuracy versus the non-IID level on the MNIST analogue. The
/// x-axis is the number of classes each client *lacks* (larger = more skewed).
fn fig6_noniid_levels(req: &Request, emit: Emit<'_>) {
    let num_classes = DatasetKind::MnistLike.num_classes();
    let mut table = TableBuilder::new(
        "Figure 6 — accuracy vs non-IID level (mnist-like)",
        &["Missing classes", "Method", "Acc (%)"],
    );
    for missing in [2usize, 4, 6, 8] {
        let mut env = ExperimentEnv::paper_default(req.scale, DatasetKind::MnistLike);
        env.partition_override = Some(PartitionStrategy::Pathological {
            classes_per_client: num_classes - missing,
        });
        for method in PERSONALIZED_METHODS {
            let result = run_method(method, &env);
            table.row(vec![
                num(missing as f64, 0),
                result.algorithm.clone().into(),
                pct(result.final_accuracy),
            ]);
        }
    }
    emit(table);
}

/// Figures 7–8: the accuracy (Figure 7) and running time (Figure 8) of
/// four methods under low / median / high system heterogeneity.
fn fig7_8_heterogeneity(req: &Request, emit: Emit<'_>) {
    let header = |metric| ["Dataset", "Level", "Method", metric];
    let mut fig7 = TableBuilder::new(
        "Figure 7 — accuracy vs system heterogeneity",
        &header("Acc (%)"),
    );
    let mut fig8 = TableBuilder::new(
        "Figure 8 — running time vs system heterogeneity",
        &header("Time (s)"),
    );
    for dataset in [DatasetKind::Cifar10Like, DatasetKind::TinyImagenetLike] {
        for level in HeterogeneityLevel::swept() {
            let mut env = ExperimentEnv::paper_default(req.scale, dataset);
            env.heterogeneity = level;
            for method in ["FedAvg", "FedMP", "FedSpa", "FedLPS"] {
                let result = run_method(method, &env);
                let row = |metric| {
                    vec![
                        dataset.name().into(),
                        level.name().into(),
                        result.algorithm.as_str().into(),
                        metric,
                    ]
                };
                fig7.row(row(pct(result.final_accuracy)));
                fig8.row(row(secs(result.total_time)));
            }
        }
    }
    emit(fig7);
    emit(fig8);
}

/// The fixed sparse ratios Figure 9 sweeps.
const FIG9_RATIOS: [f64; 4] = [0.2, 0.4, 0.6, 0.8];

/// Figure 9: FedLPS at fixed sparse ratios. Figure 9a compares the
/// accuracy of the sparse-pattern strategies (random, ordered, magnitude,
/// learnable); Figure 9b splits the time of the learnable-pattern runs —
/// FLST at that ratio, [`FedLpsConfig::flst`] — into training and
/// communication.
fn fig9_ratio_sweep(req: &Request, emit: Emit<'_>) {
    let strategies = [
        PatternStrategy::Random,
        PatternStrategy::Ordered,
        PatternStrategy::Magnitude,
        PatternStrategy::Importance,
    ];
    for dataset in [DatasetKind::MnistLike, DatasetKind::RedditLike] {
        let env = ExperimentEnv::paper_default(req.scale, dataset);
        let mut fig9a = TableBuilder::new(
            &format!("Figure 9a — pattern strategies on {}", dataset.name()),
            &["Sparse ratio", "Pattern", "Acc (%)"],
        );
        let mut fig9b = TableBuilder::new(
            &format!("Figure 9b — per-round time breakdown on {}", dataset.name()),
            &["Sparse ratio", "Train (s)", "Comm (s)", "Total (s)"],
        );
        for ratio in FIG9_RATIOS {
            for strategy in strategies {
                let cfg = FedLpsConfig::with_pattern(strategy, ratio);
                let result = run_fedlps_with(&env, cfg);
                fig9a.row(vec![
                    num(ratio, 1),
                    strategy.name().into(),
                    pct(result.final_accuracy),
                ]);
                if strategy != PatternStrategy::Importance {
                    continue;
                }
                // Recover the split from the recorded per-round totals:
                // compute time scales with FLOPs, communication with
                // uploaded bytes, converted back into seconds with the cost
                // model's reference capacities (top-tier device).
                let flops: f64 = result.rounds.iter().map(|r| r.round_flops).sum();
                let bytes: f64 = result.rounds.iter().map(|r| r.round_upload_bytes).sum();
                let train_s = flops / REFERENCE_GFLOPS;
                let comm_s = bytes / REFERENCE_BANDWIDTH;
                fig9b.row(vec![
                    num(ratio, 1),
                    secs(train_s),
                    secs(comm_s),
                    secs(result.total_time.max(train_s + comm_s)),
                ]);
            }
        }
        emit(fig9a);
        emit(fig9b);
    }
}

fn run_availability_cell(
    base: &ExperimentEnv,
    availability: AvailabilityModel,
    mode: RoundMode,
    quorum: f64,
    selection: SelectionKind,
    faults: FaultConfig,
) -> RunResult {
    let mut env = base.build();
    env.config = env
        .config
        .with_round_mode(mode)
        .with_quorum(quorum)
        .with_selection(selection)
        .with_availability(availability)
        .with_faults(faults);
    let sim = Simulator::new(env);
    let mut algo = FedLps::for_env(sim.env());
    sim.run(&mut algo)
}

/// Figure 10 (repro extension): round modes × selection policies under
/// correlated (diurnal) availability vs always-on clients.
///
/// The paper's experiments assume clients are available whenever selected
/// (§IV). This measures what that assumption hides, by running the same
/// federation grid — {sync, sync+quorum, deadline, async} × {uniform,
/// utility} — under two availability models and comparing each cell's
/// *diurnal tax*: total virtual time under a correlated day/night wave
/// divided by total time with every client always on.
///
/// With always-on clients no dispatch ever blocks, so the waits column is
/// zero and the modes differ only in how they schedule compute. Under a diurnal
/// wave the synchronous barrier pays the full outage bill — every round
/// waits for whichever cohort member dispatched into the night — while the
/// deadline hard-caps what any outage can cost (its tax stays near 1) and
/// the quorum closes rounds at a survivor fraction. That spread *is* the
/// separation the fault subsystem exists to expose.
///
/// Every cell also runs transient upload faults (retry + backoff), so the
/// comparison happens on the full fault model, not a clean network.
fn fig10_availability(req: &Request, emit: Emit<'_>) {
    // Remove device heterogeneity entirely: under the paper's five-tier
    // fleet the straggler variance alone separates the round modes, masking
    // the availability axis this figure isolates. With identical devices the
    // cohort modes tie exactly when always on, so any separation in the
    // diurnal half of the table is attributable to correlated availability.
    let mut base = ExperimentEnv::paper_default(req.scale, DatasetKind::MnistLike);
    base.heterogeneity = HeterogeneityLevel::None;

    // Probe synchronous/uniform with availability and faults both off: a
    // clean baseline that sizes everything else. The deadline budget sits
    // 20% above the worst fault-free round (the standard provisioning rule —
    // with identical devices any budget below the round time drops the whole
    // cohort), the retry backoff costs a quarter round per attempt (the
    // default 10ms backoff would dwarf a quick-scale round and turn every
    // retry into the dominant effect), and the diurnal wave runs four
    // day/night cycles over the probe's horizon with half of each period
    // offline and per-client phases.
    let probe = run_availability_cell(
        &base,
        AvailabilityModel::AlwaysOn,
        RoundMode::Synchronous,
        1.0,
        SelectionKind::Uniform,
        FaultConfig::none(),
    );
    let worst_round = probe
        .rounds
        .iter()
        .map(|r| r.round_time)
        .fold(0.0, f64::max);
    let faults = FaultConfig {
        upload_failure_prob: 0.1,
        max_retries: 2,
        retry_backoff: worst_round * 0.25,
    };
    let diurnal = AvailabilityModel::Diurnal {
        period: probe.total_time / 4.0,
        phase_spread: 1.0,
        night_offline: 0.5,
    };
    let modes = [
        ("sync", RoundMode::Synchronous, 1.0),
        ("sync+quorum", RoundMode::Synchronous, 0.7),
        ("deadline", RoundMode::deadline(worst_round * 1.2, 3), 1.0),
        ("async", RoundMode::asynchronous(4, 0.6), 1.0),
    ];
    // A time-to-accuracy bar every cell can reach.
    let target = probe.final_accuracy * 0.8;

    let mut table = TableBuilder::new(
        "Figure 10 — Round modes × selection under correlated availability",
        &[
            "Availability",
            "Mode",
            "Selection",
            "Acc (%)",
            "Time (s)",
            "TTA (s)",
            "Waits (s)",
            "Drops",
            "Retries",
        ],
    );
    for availability in [AvailabilityModel::AlwaysOn, diurnal] {
        let avail_name = availability.name();
        for (mode_name, mode, quorum) in modes {
            for selection in [SelectionKind::Uniform, SelectionKind::utility()] {
                let result =
                    run_availability_cell(&base, availability, mode, quorum, selection, faults);
                table.row(vec![
                    avail_name.into(),
                    mode_name.into(),
                    selection.name().into(),
                    pct(result.final_accuracy),
                    num(result.total_time, 3),
                    result
                        .time_to_accuracy(target)
                        .map(|t| num(t, 3))
                        .unwrap_or_else(|| "not reached".into()),
                    num(result.total_unavailable_wait_seconds(), 3),
                    num(
                        (result.total_straggler_drops() + result.total_upload_failure_drops())
                            as f64,
                        0,
                    ),
                    num(result.total_retry_attempts() as f64, 0),
                ]);
            }
        }
    }

    // The headline: each configuration's diurnal tax (time under the wave
    // relative to the same configuration with every client always on).
    let mut notes = String::from("\ndiurnal tax (total time under the wave / always on):\n");
    for (mode_name, _, _) in modes {
        for selection in ["uniform", "utility"] {
            let time = |avail| table.value(&[avail, mode_name, selection], "Time (s)");
            notes.push_str(&format!(
                "  {:<12} {:<8} {:>5.2}x\n",
                mode_name,
                selection,
                time("diurnal") / time("always-on")
            ));
        }
    }
    notes.push_str(
        "\nExpected shape: only the diurnal half pays availability waits — \
         an always-on client never blocks a dispatch. Under the wave the \
         synchronous barrier is the slowest configuration — it pays the \
         full outage bill — the deadline round degrades most \
         gracefully (a budget caps what any outage can cost, so its tax \
         stays near 1x at the price of dropped night-bound clients), the \
         quorum buys back part of the barrier's tail, and the asynchronous \
         pipeline stays fastest in absolute time even though every occupied \
         slot still sits out its wait.\n",
    );
    table.notes(notes);
    emit(table);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artefact_names_are_unique_and_listed() {
        let listing = listing();
        assert_eq!(listing.lines().count(), ARTEFACTS.len());
        for (i, a) in ARTEFACTS.iter().enumerate() {
            assert!(
                ARTEFACTS[..i].iter().all(|b| b.name != a.name),
                "{}",
                a.name
            );
            assert!(listing.contains(a.name) && listing.contains(a.about));
        }
    }

    #[test]
    fn default_method_lists_are_runnable_by_name() {
        let known = crate::cli::method_names();
        let lists = [&TABLE1_METHODS[..], &FIGURE_METHODS, &PERSONALIZED_METHODS];
        for list in lists {
            assert!(list.contains(&"FedLPS"));
            for m in list {
                assert!(known.contains(m), "{m}");
            }
        }
    }
}
