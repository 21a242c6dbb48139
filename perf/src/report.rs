//! Metric values, the declarations in the committed `BENCHMARK.json`, the
//! report files under `perf/out/`, and `--compare`.

use std::path::{Path, PathBuf};

use serde::Value;

use crate::json;
use crate::stats::median;

/// One measured number. Names carry the layer as a prefix (`core.`, `sim.`,
/// `tensor.`, …: the crate names); units follow `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// `{"name": {"value": v, "unit": u}, …}` — the shape the contract's result
/// line and the report files share.
pub fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|m| {
                let entry = json::obj(vec![
                    ("value", json::num(m.value)),
                    ("unit", json::str(m.unit)),
                ]);
                (m.name.to_string(), entry)
            })
            .collect(),
    )
}

pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("  {title}");
    for m in metrics {
        println!("    {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

/// The committed benchmark definition, compiled in so the emitter and the
/// file cannot drift apart unnoticed (see `Spec::undeclared`).
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Spec {
    pub fn committed() -> Self {
        Self::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well-formed")
    }

    fn parse(text: &str) -> Result<Self, String> {
        let root = json::parse(text)?;
        let field = |key: &str| json::get(&root, key).ok_or(format!("missing `{key}`"));
        let declared = |key: &str| -> Result<Vec<Declared>, String> {
            json::as_arr(field(key)?)
                .iter()
                .map(|m| {
                    let text = |k: &str| {
                        json::get(m, k)
                            .and_then(json::as_str)
                            .ok_or(format!("`{key}` entry lacks `{k}`"))
                    };
                    Ok(Declared {
                        name: text("name")?.to_string(),
                        unit: text("unit")?.to_string(),
                        higher_is_better: text("better")? == "higher",
                        bound: json::get(m, "bound").and_then(json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Self {
            run_seconds: json::as_f64(field("run_seconds")?).ok_or("`run_seconds` not a number")?,
            workloads: json::as_arr(field("workloads")?)
                .iter()
                .filter_map(|w| json::get(w, "name").and_then(json::as_str))
                .map(str::to_string)
                .collect(),
            end_to_end: declared("end_to_end")?,
            per_layer: declared("per_layer")?,
        })
    }

    /// Every disagreement between what was emitted and what is declared:
    /// a missing or extra name, or a unit that differs.
    pub fn disagreements(declared: &[Declared], emitted: &[Metric]) -> Vec<String> {
        let mut out = Vec::new();
        for d in declared {
            match emitted.iter().find(|m| m.name == d.name) {
                None => out.push(format!("declared metric `{}` was not emitted", d.name)),
                Some(m) if m.unit != d.unit => out.push(format!(
                    "metric `{}` emitted in `{}`, declared in `{}`",
                    d.name, m.unit, d.unit
                )),
                Some(_) => {}
            }
        }
        for m in emitted {
            if !declared.iter().any(|d| d.name == m.name) {
                out.push(format!("emitted metric `{}` is not declared", m.name));
            }
        }
        out
    }
}

/// `perf/out/`, beside this crate's manifest (ignored by git).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    let parent = path.parent().expect("report paths have a parent");
    std::fs::create_dir_all(parent)
        .and_then(|()| std::fs::write(path, json::pretty(value)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Simulated outcomes and exact counts: a host-time change must leave them
/// bit-identical, so `--compare` holds them to equality whenever both sides
/// ran the same seed.
const EXACT: [&str; 10] = [
    "sim.final_accuracy",
    "sim.virtual_time_s",
    "sim.model_gflops",
    "sim.failed_share",
    "core.client_step_count",
    "core.absorb_count",
    "sim.absorbed_reports",
    "sim.dropped_reports",
    "faults.retry_attempts",
    "faults.unavailable_dispatches",
];

/// One side of a comparison: the median, per workload and metric, over one
/// or more `latest.json` files.
struct Side {
    seeds: Vec<u64>,
    files: Vec<Value>,
}

impl Side {
    fn load(list: &str) -> Result<Self, String> {
        let files = list
            .split(',')
            .map(|p| json::read_file(Path::new(p)))
            .collect::<Result<Vec<_>, _>>()?;
        let seeds = files
            .iter()
            .filter_map(|f| json::get(json::get(f, "meta")?, "seed"))
            .filter_map(json::as_f64)
            .map(|s| s as u64)
            .collect();
        Ok(Self { seeds, files })
    }

    fn median(&self, workload: &str, group: &str, metric: &str) -> Option<f64> {
        let values: Vec<f64> = self
            .files
            .iter()
            .filter_map(|f| {
                let w = json::get(json::get(f, "workloads")?, workload)?;
                json::as_f64(json::get(
                    json::get(json::get(w, group)?, metric)?,
                    "value",
                )?)
            })
            .collect();
        (!values.is_empty()).then(|| median(&values))
    }
}

/// `--compare a.json b.json` (each side may be a comma-separated list of
/// report files, compared by their medians): per workload × end-to-end
/// metric, both values, the change, and whether `b` is worse than `a` by
/// more than the bound recorded in `BENCHMARK.json`. Returns whether every
/// metric held.
pub fn compare(a: &str, b: &str) -> Result<bool, String> {
    let spec = Spec::committed();
    let (a, b) = (Side::load(a)?, Side::load(b)?);
    let same_seeds = a.seeds == b.seeds;
    let mut held = true;
    for workload in &spec.workloads {
        println!("{workload}");
        for d in &spec.end_to_end {
            let (Some(va), Some(vb)) = (
                a.median(workload, "end_to_end", &d.name),
                b.median(workload, "end_to_end", &d.name),
            ) else {
                println!("  {:<28} missing on one side", d.name);
                held = false;
                continue;
            };
            let change = (vb - va) / va;
            let worse = if d.higher_is_better { -change } else { change };
            let bound = d.bound.unwrap_or(0.0);
            let verdict = if worse > bound { "EXCEEDS" } else { "within" };
            held &= worse <= bound;
            println!(
                "  {:<28} a {:>14.6}  b {:>14.6} {:<6} {:>+8.2}%  {verdict} bound {:.0}% ({} is better)",
                d.name,
                va,
                vb,
                d.unit,
                change * 100.0,
                bound * 100.0,
                if d.higher_is_better { "higher" } else { "lower" },
            );
        }
        for name in EXACT {
            let (Some(va), Some(vb)) = (
                a.median(workload, "per_layer", name),
                b.median(workload, "per_layer", name),
            ) else {
                continue;
            };
            let same = va.to_bits() == vb.to_bits();
            let verdict = match (same, same_seeds) {
                (true, _) => "identical",
                (false, true) => "DIFFERS (same seed: must be exact)",
                (false, false) => "differs (seeds differ)",
            };
            held &= same || !same_seeds;
            println!("  {name:<28} a {va:>14.6}  b {vb:>14.6}         {verdict}");
        }
    }
    Ok(held)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_parses_and_names_the_four_workloads() {
        let spec = Spec::committed();
        let names: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(spec.workloads, names);
        assert!(spec.run_seconds >= 1.0);
        assert!(spec.end_to_end.iter().any(|d| d.name == "setup_s"));
        assert!(spec.end_to_end.iter().all(|d| d.bound.is_some()));
        assert!(spec.per_layer.iter().all(|d| d.bound.is_none()));
    }

    #[test]
    fn disagreements_name_missing_extra_and_mis_united_metrics() {
        let declared = vec![
            Declared {
                name: "a".into(),
                unit: "s".into(),
                higher_is_better: false,
                bound: Some(0.1),
            },
            Declared {
                name: "b".into(),
                unit: "ms".into(),
                higher_is_better: false,
                bound: None,
            },
        ];
        let emitted = vec![Metric::new("b", 1.0, "us"), Metric::new("c", 1.0, "s")];
        let found = Spec::disagreements(&declared, &emitted);
        assert_eq!(found.len(), 3, "{found:?}");
        assert!(Spec::disagreements(&declared[..1], &[Metric::new("a", 2.0, "s")]).is_empty());
    }
}
