//! Fixture-driven rule tests: every known-bad snippet must flag its rule,
//! every known-good twin must pass clean, and the CLI must exit nonzero on
//! the bad set with the expected rule IDs in its report.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use fedlps_lint::{audit_source, AuditReport, RuleId};

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The rule a fixture exercises, from its `d1_…` / `w2_…` filename prefix.
fn expected_rule(name: &str) -> RuleId {
    let prefix = name.split('_').next().unwrap().to_uppercase();
    RuleId::parse(&prefix).unwrap_or_else(|| panic!("fixture `{name}` names no rule"))
}

fn audit_fixture(dir: &str, name: &str) -> AuditReport {
    let path = fixtures_dir().join(dir).join(name);
    let src = fs::read_to_string(&path).unwrap();
    let mut report = AuditReport::default();
    // Audited under a neutral simulated path so file-scoped exemptions
    // (the backend and absorption seams) do not apply.
    audit_source(&format!("crates/sim/src/{name}"), &src, &mut report);
    report
}

#[test]
fn every_rule_has_a_bad_and_a_good_fixture() {
    for dir in ["bad", "good"] {
        let mut prefixes: Vec<String> = fs::read_dir(fixtures_dir().join(dir))
            .unwrap()
            .map(|e| {
                let name = e.unwrap().file_name().into_string().unwrap();
                expected_rule(&name).to_string()
            })
            .collect();
        prefixes.sort();
        prefixes.dedup();
        let all: Vec<String> = RuleId::ALL.iter().map(|r| r.to_string()).collect();
        assert_eq!(prefixes, all, "every rule ID has a {dir} fixture");
    }
}

#[test]
fn bad_fixtures_flag_their_rule() {
    for entry in fs::read_dir(fixtures_dir().join("bad")).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let expected = expected_rule(&name);
        let report = audit_fixture("bad", &name);
        let rules: Vec<RuleId> = report.findings.iter().map(|f| f.rule).collect();
        assert!(
            rules.contains(&expected),
            "bad/{name} should flag {expected}, found {rules:?}"
        );
    }
}

#[test]
fn good_fixtures_pass_clean() {
    for entry in fs::read_dir(fixtures_dir().join("good")).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let report = audit_fixture("good", &name);
        assert!(
            report.clean(),
            "good/{name} should pass, found {:?}",
            report.findings
        );
    }
}

#[test]
fn cli_exits_nonzero_on_bad_fixtures_with_rule_ids() {
    let output = Command::new(env!("CARGO_BIN_EXE_fedlps_lint"))
        .args(["--root"])
        .arg(fixtures_dir().join("bad"))
        .output()
        .expect("run fedlps_lint");
    assert_eq!(
        output.status.code(),
        Some(1),
        "bad fixtures must fail the audit"
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    for rule in RuleId::ALL {
        assert!(
            stdout.contains(&format!(" {rule} ")),
            "report should carry a {rule} finding:\n{stdout}"
        );
    }
}

#[test]
fn cli_exits_zero_on_good_fixtures_with_json_report() {
    let output = Command::new(env!("CARGO_BIN_EXE_fedlps_lint"))
        .args(["--format", "json", "--root"])
        .arg(fixtures_dir().join("good"))
        .output()
        .expect("run fedlps_lint");
    assert_eq!(output.status.code(), Some(0), "good fixtures must pass");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("\"clean\": true"), "json: {stdout}");
    assert!(stdout.contains("\"findings\": []"), "json: {stdout}");
}
