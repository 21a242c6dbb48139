//! `fedlps_lint` — the workspace determinism auditor.
//!
//! Every guarantee this repository ships is a *determinism* contract:
//! serial == 4-shard, packed == masked-dense, in sync/deadline/async alike,
//! compared byte for byte. Those contracts are enforced dynamically by
//! proptests and the in-process `tests/determinism_matrix.rs` — but a
//! dynamic gate only covers the configurations it samples. A single `HashMap` iteration,
//! ambient `thread_rng()`, wall-clock read or stray `par_iter` outside the
//! backend seam can break bit-identity in a configuration no gate runs.
//!
//! This crate makes the invariants *statically checkable*: a hand-rolled
//! lexer (no registry access, so no `syn` — the same vendored-shim
//! philosophy as `vendor/`) walks every `.rs` file in the workspace and
//! enforces rules D1–D5 (see [`rules`]), with inline waivers
//! (`// fedlps-lint: allow(RULE, reason)`) whose reasons are mandatory and
//! whose staleness is itself a finding.
//!
//! Run it as `cargo run -p fedlps_lint` (text) or
//! `cargo run -p fedlps_lint -- --format json` (the CI artifact).

pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;

pub use engine::{audit_source, audit_workspace, AuditReport, Waiver};
pub use lexer::{lex, Lexed, Token, TokenKind};
pub use report::{render_json, render_text};
pub use rules::{check_file, Finding, RuleId};

use std::path::PathBuf;

/// Locates the workspace root: the nearest ancestor of this crate's
/// manifest directory whose `Cargo.toml` declares a `[workspace]`. Works
/// from `cargo run -p fedlps_lint` in any subdirectory and from tests.
pub fn workspace_root() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir;
                }
            }
        }
        if !dir.pop() {
            // Fall back to the manifest dir's grandparent (crates/lint -> repo).
            return PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .ancestors()
                .nth(2)
                .expect("crates/lint has a grandparent")
                .to_path_buf();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_has_the_workspace_manifest() {
        let root = workspace_root();
        let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
        assert!(manifest.contains("[workspace]"));
        assert!(root.join("crates/lint/Cargo.toml").is_file());
    }
}
