//! The repo's benchmark. See `README.md` beside this crate.
//!
//! ```text
//! fedlps_perf [--seed N] [--seconds S] [--smoke]             all four workloads
//! fedlps_perf --workload NAME --seed N --seconds S --trace T  one workload (driver contract)
//! fedlps_perf --compare A.json B.json                         two report files
//! ```

mod alloc;
mod clock;
mod json;
mod probes;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

use serde::Value;

use report::{out_dir, print_metrics, write_json, Spec};
use run::Options;
use workloads::Workload;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: Spec::committed().run_seconds,
        trace: true,
        smoke: false,
        compare: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// One workload in this process; the last stdout line is the contract's
/// result object.
fn run_one(options: Options) -> Result<bool, String> {
    let name = options.workload.name();
    let report = run::run(options);
    println!(
        "{name}: seed {} | {} timed reps{} | {} attempted, {} failed",
        options.seed,
        report.reps,
        if options.smoke { " (smoke)" } else { "" },
        report.attempted,
        report.failed
    );
    print_metrics("end to end (host time, tracing off)", &report.end_to_end);
    print_metrics(
        "per layer (sim.* outcomes are simulated, exact per seed)",
        &report.per_layer,
    );
    for failure in &report.failures {
        println!("  FAILED {failure}");
    }
    write_json(&out_dir().join(format!("{name}.json")), &report.to_json())?;
    let spans = json::obj(vec![
        ("workload", json::str(name)),
        ("spans", report.spans.clone()),
    ]);
    write_json(&out_dir().join(format!("trace_{name}.json")), &spans)?;
    println!("{}", report.result_line());
    Ok(report.correct())
}

/// Every workload, one child process each (so peak RSS and the
/// thread-local scratch pool are per workload), then `out/latest.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut all_correct = true;
    let mut reports = Vec::new();
    for workload in Workload::ALL {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "1"]);
        if args.smoke {
            child.arg("--smoke");
        }
        let status = child
            .status()
            .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
        all_correct &= status.success();
        let path = out_dir().join(format!("{}.json", workload.name()));
        match json::read_file(&path) {
            Ok(report) => reports.push((workload.name().to_string(), report)),
            Err(e) => {
                all_correct = false;
                eprintln!("{e}");
            }
        }
    }
    let git_rev = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or("unknown".to_string(), |out| {
            String::from_utf8_lossy(&out.stdout).trim().to_string()
        });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let latest = json::obj(vec![
        (
            "meta",
            json::obj(vec![
                ("seed", json::uint(args.seed)),
                ("seconds", json::num(args.seconds)),
                ("smoke", Value::Bool(args.smoke)),
                ("nproc", json::uint(nproc as u64)),
                ("git_rev", json::str(&git_rev)),
                ("claim", Value::Null),
            ]),
        ),
        ("workloads", Value::Obj(reports)),
    ]);
    let path = out_dir().join("latest.json");
    write_json(&path, &latest)?;
    println!(
        "{} — wrote {}",
        if all_correct {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        },
        path.display()
    );
    Ok(all_correct)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match (&args.compare, args.workload) {
        (Some((a, b)), _) => report::compare(a, b),
        (None, Some(workload)) => run_one(Options {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            smoke: args.smoke,
        }),
        (None, None) => run_all(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("fedlps_perf: {message}");
            ExitCode::from(2)
        }
    }
}
