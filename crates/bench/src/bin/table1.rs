//! Table I: mean personalized accuracy and total training FLOPs for every
//! method on every dataset scenario.
//!
//! ```text
//! cargo run --release -p fedlps_bench --bin table1 -- \
//!     --scale quick --datasets mnist-like,cifar10-like --methods FedAvg,Hermes,FedLPS
//! ```

use fedlps_bench::harness::{datasets_from_args, methods_from_args, run_method, ExperimentEnv};
use fedlps_bench::table::{gflops, pct, TableBuilder};
use fedlps_bench::Scale;
use fedlps_data::scenario::DatasetKind;

fn main() {
    let scale = Scale::from_args();
    let datasets = datasets_from_args(vec![DatasetKind::MnistLike, DatasetKind::Cifar10Like]);
    let default_methods = vec![
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
    let methods = methods_from_args(default_methods);

    for dataset in datasets {
        let env = ExperimentEnv::paper_default(scale, dataset);
        let mut table = TableBuilder::new(
            &format!("Table I — {} ({:?} scale)", dataset.name(), scale),
            &["Method", "Acc (%)", "FLOPs (1e9)", "Time (s)"],
        );
        for method in &methods {
            let result = run_method(method, &env);
            table.row(vec![
                result.algorithm.clone(),
                pct(result.final_accuracy),
                gflops(result.total_flops),
                format!("{:.2}", result.total_time),
            ]);
        }
        table.print();
    }
}
