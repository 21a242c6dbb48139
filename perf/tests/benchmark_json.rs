//! The committed `BENCHMARK.json` and the emitter agree, and `--seed`
//! changes the generated inputs and nothing else. Both tests drive the real
//! binary in `--smoke` mode (same sizes, two repetitions, every check, the
//! traced repetition and every probe).

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;

use serde::{Deserialize, Error, Num, Serialize, Value};

/// The binary writes `perf/out/<workload>.json`; runs must not interleave.
static OUT_DIR: Mutex<()> = Mutex::new(());

struct Raw(Value);

impl Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl<'de> Deserialize<'de> for Raw {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(Raw(value.clone()))
    }
}

fn parse(text: &str) -> Value {
    serde_json::from_str::<Raw>(text).expect("valid JSON").0
}

fn read(path: &Path) -> Value {
    parse(&std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
}

fn get<'a>(value: &'a Value, key: &str) -> &'a Value {
    value
        .field(key)
        .unwrap_or_else(|e| panic!("{e} in {value:?}"))
}

fn text(value: &Value) -> &str {
    match value {
        Value::Str(s) => s,
        other => panic!("expected a string, found {other:?}"),
    }
}

fn number(value: &Value) -> f64 {
    match value {
        Value::Num(n) => n.as_f64(),
        other => panic!("expected a number, found {other:?}"),
    }
}

fn items(value: &Value) -> &[Value] {
    match value {
        Value::Arr(items) => items,
        other => panic!("expected an array, found {other:?}"),
    }
}

fn names(value: &Value) -> Vec<&str> {
    match value {
        Value::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, found {other:?}"),
    }
}

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn perf(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_fedlps_perf"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "`fedlps_perf {}` failed:\n{stdout}\n{}",
        args.join(" "),
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

#[test]
fn smoke_run_emits_exactly_what_benchmark_json_declares() {
    let _guard = OUT_DIR.lock().unwrap_or_else(|e| e.into_inner());
    let declared = read(&manifest_dir().join("../BENCHMARK.json"));
    assert_eq!(
        names(&declared),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert!(items(get(&declared, "end_to_end"))
        .iter()
        .any(|m| text(get(m, "name")) == "setup_s"));

    perf(&["--smoke", "--seed", "7"]);
    let latest = read(&manifest_dir().join("out/latest.json"));
    assert_eq!(*get(get(&latest, "meta"), "claim"), Value::Null);

    for workload in items(get(&declared, "workloads")) {
        let name = text(get(workload, "name"));
        let report = get(get(&latest, "workloads"), name);
        assert_eq!(*get(report, "correct"), Value::Bool(true), "{name}");
        assert_eq!(*get(report, "failed"), Value::Num(Num::U(0)), "{name}");
        for group in ["end_to_end", "per_layer"] {
            let emitted = get(report, group);
            for metric in items(get(&declared, group)) {
                let metric_name = text(get(metric, "name"));
                let unit = text(get(get(emitted, metric_name), "unit"));
                assert_eq!(unit, text(get(metric, "unit")), "{name}: {metric_name}");
                assert!(number(get(get(emitted, metric_name), "value")).is_finite());
            }
            assert_eq!(
                names(emitted).len(),
                items(get(&declared, group)).len(),
                "{name}: {group} emits a metric BENCHMARK.json does not declare"
            );
        }
        // End-to-end metrics are never 0 (the benchmark contract).
        for metric in names(get(report, "end_to_end")) {
            assert!(number(get(get(get(report, "end_to_end"), metric), "value")) > 0.0);
        }
        assert!(manifest_dir()
            .join(format!("out/trace_{name}.json"))
            .exists());
    }
}

#[test]
fn seed_changes_the_inputs_and_nothing_else() {
    let _guard = OUT_DIR.lock().unwrap_or_else(|e| e.into_inner());
    let run = |seed: &str| {
        let stdout = perf(&[
            "--workload",
            "curves_cnn_eval",
            "--smoke",
            "--trace",
            "1",
            "--seed",
            seed,
        ]);
        let result = parse(stdout.lines().last().expect("a result line"));
        assert_eq!(
            names(&result),
            ["correct", "attempted", "failed", "metrics"],
            "the contract's result object"
        );
        assert_eq!(*get(&result, "correct"), Value::Bool(true));
        result
    };
    let simulated = |result: &Value| -> Vec<u64> {
        [
            "sim.model_gflops",
            "sim.virtual_time_s",
            "sim.final_accuracy",
        ]
        .iter()
        .map(|m| number(get(get(get(result, "metrics"), m), "value")).to_bits())
        .collect()
    };
    let (seven, again, eight) = (run("7"), run("7"), run("8"));
    assert_eq!(
        simulated(&seven),
        simulated(&again),
        "same seed, same inputs"
    );
    assert_ne!(simulated(&seven)[0], simulated(&eight)[0], "model_gflops");
    assert_eq!(names(get(&seven, "metrics")), names(get(&eight, "metrics")));
}
