//! The paper's qualitative claims, asserted on what the harness prints.
//!
//! Each test reads the tables an artefact of `fedlps_bench::ARTEFACTS`
//! emits at `Scale::Tiny` (seed 42) — the same rows `paper <artefact>
//! --scale tiny` prints, with the unrounded numbers behind the cells — and
//! asserts the orderings that hold there, each annotated with the margin
//! observed when the test was written. The orderings that do **not** hold at
//! smoke scale are recorded in PAPER.md ("Fidelity at smoke scale") instead
//! of being asserted weakly: FedLPS's raw accuracy is at or below every
//! personalized baseline's on both datasets, P-UCBV does not beat RCR on raw
//! accuracy, and learnable patterns do not beat magnitude or ordered ones.

use std::sync::OnceLock;

use fedlps_bench::artefacts::{Request, ARTEFACTS};
use fedlps_bench::{Scale, TableBuilder};

/// The tables of one artefact at tiny scale, trained once and shared by the
/// tests of this file.
fn tables(name: &str) -> &'static [TableBuilder] {
    static RUNS: OnceLock<Vec<OnceLock<Vec<TableBuilder>>>> = OnceLock::new();
    let index = ARTEFACTS
        .iter()
        .position(|a| a.name == name)
        .unwrap_or_else(|| panic!("no artefact '{name}'"));
    RUNS.get_or_init(|| ARTEFACTS.iter().map(|_| OnceLock::new()).collect())[index].get_or_init(
        || {
            let mut emitted = Vec::new();
            (ARTEFACTS[index].run)(&Request::at(Scale::Tiny), &mut |t| emitted.push(t));
            emitted
        },
    )
}

/// The artefacts this file asserts orderings on.
const CLAIMED: [&str; 3] = ["table1", "table2_ablation", "fig9_ratio_sweep"];

/// The artefacts held to no ordering here, and why.
const PRINT_ONLY: [(&str, &str); 5] = [
    (
        "fig3_4_convergence",
        "curves whose end points are Table I rows",
    ),
    (
        "fig5_tta",
        "12 s in the debug profile; targets derive from FedLPS's own accuracy",
    ),
    (
        "fig6_noniid_levels",
        "FedLPS trails the personalized baselines at smoke scale (PAPER.md)",
    ),
    (
        "fig7_8_heterogeneity",
        "16 s in the debug profile; the High column is Table I",
    ),
    (
        "fig10_availability",
        "its orderings are pinned on a 64-client fleet by tests/virtual_time_claims.rs",
    ),
];

#[test]
fn every_artefact_is_claimed_or_listed_as_print_only() {
    for artefact in ARTEFACTS {
        let claimed = CLAIMED.contains(&artefact.name);
        let print_only = PRINT_ONLY.iter().any(|(name, _)| *name == artefact.name);
        assert!(
            claimed != print_only,
            "{}: assert its orderings here or list it in PRINT_ONLY with a reason",
            artefact.name
        );
    }
    assert_eq!(CLAIMED.len() + PRINT_ONLY.len(), ARTEFACTS.len());
}

/// The methods whose clients all deploy one shared model: dense, globally
/// sparse and width-scaling.
const SHARED_MODEL_METHODS: [&str; 7] = [
    "FedAvg", "FedProx", "REFL", "CS", "HeteroFL", "FedRolex", "FedMP",
];

fn table1(dataset: &str) -> &'static TableBuilder {
    tables("table1")
        .iter()
        .find(|t| t.title().contains(dataset))
        .unwrap_or_else(|| panic!("Table I has no {dataset} table"))
}

#[test]
fn table1_fedlps_beats_every_shared_model_baseline_on_cifar10_like_at_fewer_flops() {
    let t = table1("cifar10-like");
    let (acc, flops, time) = ("Acc (%)", "FLOPs (1e9)", "Time (s)");
    let fedlps = ["FedLPS"];
    for method in SHARED_MODEL_METHODS {
        // FedLPS 44.53 %; the closest is REFL at 30.47 % (+14.06 points).
        assert!(
            t.value(&fedlps, acc) > t.value(&[method], acc),
            "FedLPS must beat {method} on accuracy"
        );
    }
    for method in t.keys() {
        // FedLPS 0.0157 GFLOP; FedMP's discrete-UCB ratios undercut it
        // (0.0095), the next cheapest are HeteroFL / FedRolex / FedP3 at
        // 0.0231 (1.47x).
        if method != "FedLPS" && method != "FedMP" {
            assert!(
                t.value(&fedlps, flops) < t.value(&[method], flops),
                "FedLPS must train on fewer FLOPs than {method}"
            );
        }
    }
    for method in ["FedAvg", "FedProx", "REFL"] {
        // Eq. 14: 0.021 s of virtual time against REFL's 0.049 s (2.3x) and
        // FedAvg's 0.098 s (4.6x).
        assert!(
            t.value(&fedlps, time) < t.value(&[method], time),
            "FedLPS must finish before dense {method}"
        );
    }
}

#[test]
fn table1_fedlps_has_the_best_accuracy_per_flop_of_all_rows_on_both_datasets() {
    // mnist-like: FedLPS 10 404 %/GFLOP, runner-up FedP3 7 461 (1.39x).
    // cifar10-like: FedLPS 2 842, runner-up FedP3 2 403 (1.18x).
    for dataset in ["mnist-like", "cifar10-like"] {
        let t = table1(dataset);
        let per_flop = |m: &str| t.value(&[m], "Acc (%)") / t.value(&[m], "FLOPs (1e9)");
        assert_eq!(t.len(), 15, "the default sweep has fifteen rows");
        for method in t.keys() {
            if method != "FedLPS" {
                assert!(
                    per_flop("FedLPS") > per_flop(method),
                    "{dataset}: FedLPS must beat {method} on accuracy per FLOP"
                );
            }
        }
    }
}

#[test]
fn table2_pucbv_buys_more_accuracy_per_flop_than_rcr_from_fewer_flops() {
    // FLOPs, P-UCBV vs RCR: mnist-like 0.0066 vs 0.0106 (Fix), 0.0051 vs
    // 0.0072 (Dyn); cifar10-like 0.0157 vs 0.0231 (Fix), 0.0128 vs 0.0178
    // (Dyn). Accuracy per GFLOP: 10 404 vs 6 132, 11 710 vs 8 170, 2 842 vs
    // 2 437, 3 425 vs 2 805 — the narrowest margin is 1.17x.
    for t in tables("table2_ablation") {
        let flops = |v: &str| t.value(&[v], "FLOPs (1e9)");
        let per_flop = |v: &str| t.value(&[v], "Acc (%)") / flops(v);
        for (pucbv, rcr) in [("P-UCBV-Fix", "RCR-Fix"), ("P-UCBV-Dyn", "RCR-Dyn")] {
            assert!(flops(pucbv) < flops(rcr), "{}: {pucbv} FLOPs", t.title());
            assert!(
                per_flop(pucbv) > per_flop(rcr),
                "{}: {pucbv} accuracy per FLOP",
                t.title()
            );
        }
    }
}

/// The tables of one panel of Figure 9, picked by title.
fn fig9(panel: &str) -> Vec<&'static TableBuilder> {
    let panels: Vec<_> = tables("fig9_ratio_sweep")
        .iter()
        .filter(|t| t.title().starts_with(panel))
        .collect();
    assert!(!panels.is_empty(), "Figure 9 has no {panel} table");
    panels
}

#[test]
fn fig9a_learnable_patterns_beat_random_ones_at_every_ratio_on_mnist_like() {
    // Learnable vs random: 58.59 vs 57.03, 64.06 vs 57.81, 71.88 vs 60.16,
    // 64.84 vs 57.03 — the narrowest margin is +1.56 points at ratio 0.2.
    // (reddit-like sits at chance level, ~7 %, for every pattern.)
    let t = fig9("Figure 9a")
        .into_iter()
        .find(|t| t.title().contains("mnist-like"))
        .expect("Figure 9a sweeps mnist-like");
    for ratio in ["0.2", "0.4", "0.6", "0.8"] {
        assert!(
            t.value(&[ratio, "learnable-importance"], "Acc (%)")
                > t.value(&[ratio, "random"], "Acc (%)"),
            "learnable patterns must beat random ones at ratio {ratio}"
        );
    }
}

#[test]
fn fig9b_train_and_communication_time_grow_with_the_sparse_ratio() {
    // mnist-like communication: 0.0208 → 0.0282 → 0.0318 → 0.0339 s, whose
    // last step (1.07x) is the narrowest of the four columns.
    for t in fig9("Figure 9b") {
        for column in ["Train (s)", "Comm (s)"] {
            for pair in ["0.2", "0.4", "0.6", "0.8"].windows(2) {
                assert!(
                    t.value(&[pair[0]], column) < t.value(&[pair[1]], column),
                    "{}: {column} must grow from ratio {} to {}",
                    t.title(),
                    pair[0],
                    pair[1]
                );
            }
        }
    }
}
