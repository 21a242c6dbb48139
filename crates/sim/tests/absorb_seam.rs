//! Rule D5: only the absorption seam, `crates/sim/src/absorb.rs`, hands
//! updates to an algorithm, so absorption order has one owner. Clippy has
//! no per-file call rule, so this test scans the sources: an
//! `absorb_update(` or `absorb_update_stale(` call anywhere else fails it.
//! Definitions and `self.`-headed receiver chains (an algorithm forwarding
//! to its inner state) are allowed; `//` comments are ignored.

use std::path::{Path, PathBuf};

/// The seam, and this file, whose unit cases are deliberate violations.
const ALLOWED: [&str; 2] = [
    "crates/sim/src/absorb.rs",
    "crates/sim/tests/absorb_seam.rs",
];
const METHODS: [&str; 2] = ["absorb_update", "absorb_update_stale"];

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether the receiver chain that `before` ends with (`….`) starts at `self`.
fn receiver_is_self(mut before: &str) -> bool {
    loop {
        let Some(chain) = before.strip_suffix('.') else {
            return false;
        };
        let chain = chain.trim_end();
        let rest = chain.trim_end_matches(is_ident);
        let link = &chain[rest.len()..];
        before = rest.trim_end();
        if !before.ends_with('.') {
            return link == "self";
        }
    }
}

/// The 1-based lines of `source` that call an absorb method from outside
/// `self`.
fn foreign_absorb_calls(source: &str) -> Vec<usize> {
    let code: Vec<&str> = source
        .lines()
        .map(|l| l.split("//").next().unwrap_or(l))
        .collect();
    let code = code.join("\n");
    let mut lines = Vec::new();
    for (start, _) in code.match_indices("absorb_update") {
        let end = code[start..]
            .find(|c| !is_ident(c))
            .map_or(code.len(), |n| start + n);
        let before = code[..start].trim_end();
        let is_call = METHODS.contains(&&code[start..end])
            && !code[..start].ends_with(is_ident)
            && code[end..].trim_start().starts_with('(');
        let is_definition = before
            .strip_suffix("fn")
            .is_some_and(|b| !b.ends_with(is_ident));
        if is_call && !is_definition && !receiver_is_self(before) {
            lines.push(code[..start].matches('\n').count() + 1);
        }
    }
    lines
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() && !path.ends_with("target") && !path.ends_with("vendor") {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn only_the_absorption_seam_calls_absorb() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for dir in [
        "src",
        "tests",
        "examples",
        "crates",
        "perf/src",
        "perf/tests",
    ] {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(
        files.len() > 50,
        "the walk found the real tree ({} files)",
        files.len()
    );
    let mut violations = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(&root).expect("under the root");
        let rel = rel.to_string_lossy().replace('\\', "/");
        if ALLOWED.contains(&rel.as_str()) {
            continue;
        }
        let source = std::fs::read_to_string(path).expect("readable source file");
        violations.extend(
            foreign_absorb_calls(&source)
                .into_iter()
                .map(|l| format!("{rel}:{l}")),
        );
    }
    assert!(
        violations.is_empty(),
        "absorb called outside {}: {violations:?}",
        ALLOWED[0]
    );
}

#[test]
fn scan_flags_a_foreign_receiver_or_path_call() {
    for (bad, line) in [
        ("algorithm.absorb_update(env, 0, u);", 1),
        ("\nother.inner\n    .absorb_update_stale(e, 0, u, 1, w);", 3),
        ("FlAlgorithm::absorb_update(&mut a, e, 0, u);", 1),
    ] {
        assert_eq!(foreign_absorb_calls(bad), [line], "{bad}");
    }
}

#[test]
fn scan_allows_definitions_self_delegation_and_comments() {
    let good = "fn absorb_update(&mut self, env: &FlEnv, round: usize, update: ClientUpdate);
        self.absorb_update_stale(env, round, update, 0, 1.0);
        ctx.span(ABSORB, || self.inner.absorb_update(env, round, update))
        self.inner
            .absorb_update_stale(env, round, update, staleness, weight)
        /// Drives [`absorb_update`] via `algorithm.absorb_update(env, round, u)`.
        const ABSORB: &str = \"core.absorb_update\";";
    assert_eq!(foreign_absorb_calls(good), Vec::<usize>::new());
}
