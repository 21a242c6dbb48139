//! The determinism rule set (D1–D5) and the per-file checker.
//!
//! Every guarantee the workspace ships — serial == 4-shard, packed ==
//! masked-dense, sync/deadline/async compared byte-equal in tests — is a
//! *determinism* contract. These rules make the contract statically
//! checkable: each one bans a construct that is known to break bit-identity
//! in a configuration the dynamic gates might not sample.
//!
//! | Rule | Bans | Why |
//! |------|------|-----|
//! | D1 | `HashMap`/`HashSet` (and friends) | iteration order is seeded per-process |
//! | D2 | `Instant::now`, `SystemTime`, `thread_rng`, `rand::random`, `thread::spawn` | ambient nondeterminism |
//! | D3 | `thread::scope`, `rayon`/`par_iter`/`ThreadPoolBuilder` outside the backend seam | parallelism must stay confined |
//! | D4 | float `sum`/`fold`/`product` over unordered or parallel sources | reassociation invalidates packed-vs-dense proofs |
//! | D5 | `absorb_update{,_stale}` calls outside the absorption seam | absorption order is the bit-identity linchpin |
//!
//! Waivers: `// fedlps-lint: allow(D2, reason)` on the offending line or the
//! line(s) above it. The reason is mandatory (W1 flags reasonless waivers)
//! and waivers that match nothing are themselves findings (W2), so the
//! allow-list can never rot silently.

use crate::lexer::{Lexed, Token, TokenKind};

/// A rule identifier. `D*` are the determinism rules; `W*` police the
/// waiver mechanism itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    D1,
    D2,
    D3,
    D4,
    D5,
    /// A waiver without a reason.
    W1,
    /// A waiver that matched no finding (stale allow).
    W2,
}

impl RuleId {
    /// All rules, in report order.
    pub const ALL: [RuleId; 7] = [
        RuleId::D1,
        RuleId::D2,
        RuleId::D3,
        RuleId::D4,
        RuleId::D5,
        RuleId::W1,
        RuleId::W2,
    ];

    /// The stable textual id used in reports and waivers.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::D3 => "D3",
            RuleId::D4 => "D4",
            RuleId::D5 => "D5",
            RuleId::W1 => "W1",
            RuleId::W2 => "W2",
        }
    }

    /// Parses a textual rule id (as written in a waiver).
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.as_str() == s)
    }

    /// One-line description, shown by `--list-rules`.
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::D1 => {
                "unordered-iteration collection (HashMap/HashSet): use BTreeMap/BTreeSet \
                 or a sorted Vec so iteration order is deterministic"
            }
            RuleId::D2 => {
                "ambient nondeterminism (Instant::now / SystemTime / thread_rng / \
                 rand::random / thread::spawn): thread time, wall time and ambient RNG \
                 break replayability; use the virtual clock and seeded streams"
            }
            RuleId::D3 => {
                "parallelism outside the backend seam: thread::scope (and rayon/par_iter/\
                 ThreadPoolBuilder) may appear only in crates/sim/src/backend.rs so every \
                 other layer stays provably serial-deterministic"
            }
            RuleId::D4 => {
                "float accumulation over an unordered or parallel source: reassociated \
                 sums are not bit-identical; accumulate over an ordered slice walk"
            }
            RuleId::D5 => {
                "absorption seam violation: absorb_update/absorb_update_stale may be \
                 driven only from crates/sim/src/absorb.rs \
                 (self-delegation inside an algorithm impl is fine)"
            }
            RuleId::W1 => "fedlps-lint waiver without a reason: the reason is mandatory",
            RuleId::W2 => "fedlps-lint waiver that matched no finding: remove the stale allow",
        }
    }
}

impl std::fmt::Display for RuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: RuleId,
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

/// Identifiers banned everywhere by D1. The exotic ones are future-proofing:
/// swapping the std hasher for a faster one does not make it ordered.
const D1_BANNED: &[&str] = &[
    "HashMap",
    "HashSet",
    "FxHashMap",
    "FxHashSet",
    "AHashMap",
    "AHashSet",
    "IndexMap",
    "IndexSet",
];

/// Identifier *sequences* banned by D2 (matched across `::` / `.`).
const D2_BANNED_PATHS: &[&[&str]] = &[
    &["Instant", "now"],
    &["SystemTime", "now"],
    &["thread", "spawn"],
    &["rand", "random"],
];

/// Bare identifiers banned by D2 wherever they appear.
const D2_BANNED_IDENTS: &[&str] = &["thread_rng", "SystemTime", "ThreadRng"];

/// Identifier sequences banned by D3 outside the backend seam (matched
/// across `::` / `.`): the std primitive the seam's `par_map` is built on.
const D3_BANNED_PATHS: &[&[&str]] = &[&["thread", "scope"]];

/// Identifiers banned by D3 outside the backend seam: the rayon-style API
/// stays banned although nothing in the workspace provides it.
const D3_BANNED_IDENTS: &[&str] = &[
    "rayon",
    "par_iter",
    "into_par_iter",
    "par_iter_mut",
    "par_chunks",
    "par_bridge",
    "ThreadPoolBuilder",
];

/// Files (path suffixes) where D3 parallelism is the whole point.
const D3_ALLOWED_FILES: &[&str] = &["crates/sim/src/backend.rs"];

/// Sources that make a float accumulation order-unstable (D4): parallel
/// iteration reassociates, hash iteration reorders. `BTreeMap::values()` is
/// an ordered walk and deliberately not listed.
const D4_UNORDERED_SOURCES: &[&str] = &[
    "par_iter",
    "into_par_iter",
    "par_bridge",
    "HashMap",
    "HashSet",
];

/// Files (path suffixes) allowed to *drive* absorption (D5): the absorption
/// layer, home of both the barrier walk and the async absorb.
const D5_ALLOWED_FILES: &[&str] = &["crates/sim/src/absorb.rs"];

const D5_SEAM_METHODS: &[&str] = &["absorb_update", "absorb_update_stale"];

fn path_matches(file: &str, suffixes: &[&str]) -> bool {
    suffixes.iter().any(|s| file.ends_with(s))
}

/// Runs every rule over one lexed file. `file` is the workspace-relative
/// path; waivers are applied later by the engine so the self-audit can also
/// count what was waived.
pub fn check_file(file: &str, lexed: &Lexed) -> Vec<Finding> {
    let mut findings = Vec::new();
    let tokens = &lexed.tokens;
    check_d1(file, tokens, &mut findings);
    check_d2(file, tokens, &mut findings);
    check_d3(file, tokens, &mut findings);
    check_d4(file, tokens, &mut findings);
    check_d5(file, tokens, &mut findings);
    findings.sort_by_key(|f| (f.line, f.col, f.rule));
    findings
}

fn push(findings: &mut Vec<Finding>, rule: RuleId, file: &str, tok: &Token, message: String) {
    findings.push(Finding {
        rule,
        file: file.to_string(),
        line: tok.line,
        col: tok.col,
        message,
    });
}

fn check_d1(file: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    for tok in tokens {
        if let Some(name) = tok.ident() {
            if D1_BANNED.contains(&name) {
                push(
                    findings,
                    RuleId::D1,
                    file,
                    tok,
                    format!(
                        "`{name}` iterates in hash order; use BTreeMap/BTreeSet or a sorted Vec"
                    ),
                );
            }
        }
    }
}

/// Matches `path` (a sequence of identifiers) against the token stream at
/// `i`, crossing `::` and `.` separators: `Instant::now`, `std::thread::
/// spawn` and `time.now` styles all reach the same sequence.
fn path_matches_at(tokens: &[Token], i: usize, path: &[&str]) -> bool {
    if tokens[i].ident() != Some(path[0]) {
        return false;
    }
    let mut j = i;
    for want in &path[1..] {
        // Step over exactly one separator then expect the next segment.
        let Some(sep) = tokens.get(j + 1) else {
            return false;
        };
        let is_sep = sep.kind == TokenKind::PathSep || sep.is_punct('.');
        if !is_sep || tokens.get(j + 2).and_then(Token::ident) != Some(want) {
            return false;
        }
        j += 2;
    }
    true
}

fn check_d2(file: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    for (i, tok) in tokens.iter().enumerate() {
        let Some(name) = tok.ident() else { continue };
        if D2_BANNED_IDENTS.contains(&name) {
            push(
                findings,
                RuleId::D2,
                file,
                tok,
                format!("`{name}` is ambient nondeterminism; use the virtual clock / seeded RNG streams"),
            );
            continue;
        }
        for path in D2_BANNED_PATHS {
            // Bare-ident hits above already reported `SystemTime`.
            if path_matches_at(tokens, i, path) && !D2_BANNED_IDENTS.contains(&path[0]) {
                push(
                    findings,
                    RuleId::D2,
                    file,
                    tok,
                    format!(
                        "`{}` is ambient nondeterminism; use the virtual clock / seeded RNG streams",
                        path.join("::")
                    ),
                );
            }
        }
    }
}

fn check_d3(file: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    if path_matches(file, D3_ALLOWED_FILES) {
        return;
    }
    for (i, tok) in tokens.iter().enumerate() {
        let Some(name) = tok.ident() else { continue };
        let banned = if D3_BANNED_IDENTS.contains(&name) {
            name.to_string()
        } else if let Some(path) = D3_BANNED_PATHS
            .iter()
            .find(|path| path_matches_at(tokens, i, path))
        {
            path.join("::")
        } else {
            continue;
        };
        push(
            findings,
            RuleId::D3,
            file,
            tok,
            format!(
                "`{banned}` outside the backend seam; parallelism lives only in crates/sim/src/backend.rs"
            ),
        );
    }
}

fn check_d4(file: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    for (i, tok) in tokens.iter().enumerate() {
        let Some(name) = tok.ident() else { continue };
        let is_accumulator = matches!(name, "sum" | "fold" | "product");
        // Only method-call position: `.sum`, `.fold(`, `.product` — a local
        // named `sum` is fine.
        if !is_accumulator || i == 0 || !tokens[i - 1].is_punct('.') {
            continue;
        }
        // `sum`/`product` are only order-sensitive for floats: when the
        // turbofish names an integer type the reassociation is exact.
        if matches!(name, "sum" | "product") && turbofish_is_integer(tokens, i) {
            continue;
        }
        // Walk back to the start of the statement; if the chain crosses an
        // unordered or parallel source, the accumulation order is unstable.
        let start = statement_start(tokens, i);
        if let Some(source) = tokens[start..i]
            .iter()
            .filter_map(Token::ident)
            .find(|id| D4_UNORDERED_SOURCES.contains(id))
        {
            push(
                findings,
                RuleId::D4,
                file,
                tok,
                format!(
                    "float `{name}` over `{source}`: accumulation order is not fixed, \
                     which breaks bit-identity; walk an ordered slice instead"
                ),
            );
        }
    }
}

/// Index of the first token of the statement containing `i` (best effort:
/// scans back to the nearest `;`, `{` or `}`).
fn statement_start(tokens: &[Token], i: usize) -> usize {
    let mut j = i;
    while j > 0 {
        let t = &tokens[j - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        j -= 1;
    }
    j
}

/// Whether `.sum::<uN/iN/usize>()` names an integer accumulator.
fn turbofish_is_integer(tokens: &[Token], i: usize) -> bool {
    let Some(sep) = tokens.get(i + 1) else {
        return false;
    };
    if sep.kind != TokenKind::PathSep || !tokens.get(i + 2).is_some_and(|t| t.is_punct('<')) {
        return false;
    }
    match tokens.get(i + 3).and_then(Token::ident) {
        Some(ty) => {
            matches!(
                ty,
                "u8" | "u16"
                    | "u32"
                    | "u64"
                    | "u128"
                    | "usize"
                    | "i8"
                    | "i16"
                    | "i32"
                    | "i64"
                    | "i128"
                    | "isize"
            )
        }
        None => false,
    }
}

fn check_d5(file: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    if path_matches(file, D5_ALLOWED_FILES) {
        return;
    }
    for (i, tok) in tokens.iter().enumerate() {
        let Some(name) = tok.ident() else { continue };
        if !D5_SEAM_METHODS.contains(&name) {
            continue;
        }
        // Only calls: the next token must open the argument list.
        if !tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        // Definitions (`fn absorb_update(…)`) are fine anywhere.
        if i > 0 && tokens[i - 1].ident() == Some("fn") {
            continue;
        }
        // Self-delegation (`self.absorb_update(…)`, `self.inner.absorb_update(…)`)
        // is an algorithm forwarding within its own impl — allowed. Any other
        // receiver is a foreign driver of the absorption seam.
        if i > 0 && tokens[i - 1].is_punct('.') && receiver_head_is_self(tokens, i - 1) {
            continue;
        }
        push(
            findings,
            RuleId::D5,
            file,
            tok,
            format!(
                "`{name}` driven outside the absorption seam; only \
                 crates/sim/src/absorb.rs may invoke it (self-delegation excepted)"
            ),
        );
    }
}

/// Walks a dotted receiver chain backwards from the `.` at `dot` and reports
/// whether its head identifier is `self`.
fn receiver_head_is_self(tokens: &[Token], dot: usize) -> bool {
    let mut j = dot; // tokens[j] is a '.'
    loop {
        // Expect an identifier before the dot.
        if j == 0 {
            return false;
        }
        let Some(name) = tokens[j - 1].ident() else {
            return false;
        };
        // Is there another link (`x.` or `x::`) before it?
        if j >= 2 {
            let prev = &tokens[j - 2];
            if prev.is_punct('.') {
                j -= 2;
                continue;
            }
        }
        return name == "self";
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn rules_hit(src: &str) -> Vec<RuleId> {
        let mut ids: Vec<_> = check_file("crates/sim/src/x.rs", &lex(src))
            .into_iter()
            .map(|f| f.rule)
            .collect();
        ids.dedup();
        ids
    }

    #[test]
    fn d1_flags_hash_collections() {
        assert_eq!(
            rules_hit("use std::collections::HashMap;"),
            vec![RuleId::D1]
        );
        assert_eq!(
            rules_hit("let s: HashSet<u32> = HashSet::new();"),
            vec![RuleId::D1]
        );
        assert!(rules_hit("let m = BTreeMap::new();").is_empty());
    }

    #[test]
    fn d2_flags_ambient_nondeterminism() {
        assert_eq!(rules_hit("let t = Instant::now();"), vec![RuleId::D2]);
        assert_eq!(
            rules_hit("let r = rand::random::<f64>();"),
            vec![RuleId::D2]
        );
        assert_eq!(rules_hit("let mut rng = thread_rng();"), vec![RuleId::D2]);
        assert_eq!(rules_hit("std::thread::spawn(|| {});"), vec![RuleId::D2]);
        assert!(rules_hit("let t = clock.now();").is_empty());
        assert!(
            rules_hit("tokio::spawn(fut);").is_empty(),
            "bare spawn is not banned"
        );
    }

    #[test]
    fn d3_confined_to_backend() {
        assert_eq!(rules_hit("use rayon::prelude::*;"), vec![RuleId::D3]);
        assert_eq!(
            rules_hit("v.into_par_iter().map(f).collect()"),
            vec![RuleId::D3]
        );
        assert_eq!(
            rules_hit("std::thread::scope(|s| { s.spawn(work); });"),
            vec![RuleId::D3]
        );
        assert_eq!(rules_hit("thread::scope(run);"), vec![RuleId::D3]);
        let in_backend = check_file(
            "crates/sim/src/backend.rs",
            &lex("v.into_par_iter().map(f).collect(); std::thread::scope(|s| {});"),
        );
        assert!(in_backend.is_empty());
        // Other `thread` items and a local named `scope` are not scoped threads.
        assert!(rules_hit("let id = std::thread::current().id();").is_empty());
        assert!(rules_hit("let scope = 3; thread.len();").is_empty());
        // `Backend::ThreadPool` is an enum variant, not rayon.
        assert!(rules_hit("let k = Backend::ThreadPool;").is_empty());
    }

    #[test]
    fn d4_flags_unordered_float_accumulation() {
        assert_eq!(
            rules_hit("let s = v.into_par_iter().map(f).sum::<f32>();"),
            vec![RuleId::D3, RuleId::D4]
        );
        assert!(rules_hit("let s = v.iter().sum::<f32>();").is_empty());
        assert!(
            !rules_hit("let n = v.into_par_iter().map(f).sum::<u64>();").contains(&RuleId::D4),
            "integer sums are associative"
        );
        assert!(rules_hit("let prev = done; let s = v.iter().sum::<f64>();").is_empty());
    }

    #[test]
    fn d5_guards_the_absorption_seam() {
        assert_eq!(
            rules_hit("algorithm.absorb_update(env, round, update);"),
            vec![RuleId::D5]
        );
        // Self-delegation within an impl is fine, as is the defining `fn`.
        assert!(rules_hit("self.absorb_update(env, round, update);").is_empty());
        assert!(rules_hit("self.inner.absorb_update(env, round, update);").is_empty());
        assert!(rules_hit("fn absorb_update(&mut self) {}").is_empty());
        // The seam is exactly one file: the driver and the topology layer
        // are outside it like any other module.
        let call = lex("algorithm.absorb_update(env, round, update);");
        for file in ["crates/sim/src/driver.rs", "crates/sim/src/topology.rs"] {
            let rules: Vec<_> = check_file(file, &call).iter().map(|f| f.rule).collect();
            assert_eq!(rules, vec![RuleId::D5], "{file}");
        }
        assert!(check_file("crates/sim/src/absorb.rs", &call).is_empty());
    }

    #[test]
    fn rule_ids_round_trip() {
        for rule in RuleId::ALL {
            assert_eq!(RuleId::parse(rule.as_str()), Some(rule));
        }
        assert_eq!(RuleId::parse("D9"), None);
    }
}
