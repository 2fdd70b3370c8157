//! The rule catalog and the per-file scanners.
//!
//! Every rule is named, individually suppressible with an inline
//! `// lint:allow(RULE, reason)` comment, and scoped to the code it
//! protects (test code — `tests/`, `benches/`, `examples/` trees and
//! `#[cfg(test)]` regions — is exempt from the determinism and panic
//! rules; `unsafe` documentation is required everywhere).
//!
//! | rule | invariant |
//! |------|-----------|
//! | D1   | no wall-clock (`SystemTime`, `Instant::now`, `thread::sleep`) outside the timing allowlist |
//! | D2   | no hash-ordered containers (`HashMap`/`HashSet`) in crates feeding deterministic artifacts |
//! | D3   | no randomness source outside `soteria-rt::rng` |
//! | H1   | no external (non-path, non-workspace) dependency in any `Cargo.toml` |
//! | U1   | every `unsafe` carries a `// SAFETY:` comment |
//! | P1   | no `unwrap()` / `expect()` in library code of `core`/`nvm`/`crypto`/`ecc` |
//! | A1   | every `lint:allow` names a known rule and gives a reason |
//! | C1   | lock-acquisition order is cycle-free across the workspace |
//! | C2   | no lock guard held across a blocking operation |
//! | C3   | `Condvar::wait` sits inside a predicate loop |
//! | U2   | raw syscalls reachable only through the audited `Poller` API |
//!
//! The D/H/U1/P1/A1 rules run in the per-file **lex** pass; the C rules
//! and U2 run in the whole-workspace **conc** pass (see [`crate::conc`]).

use crate::lexer::{self, SourceLine};

/// A named lint rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock time source in deterministic code.
    D1,
    /// Hash-ordered container in a deterministic crate.
    D2,
    /// Nondeterministic randomness source outside `rt::rng`.
    D3,
    /// External dependency in a `Cargo.toml`.
    H1,
    /// `unsafe` without a `SAFETY:` comment.
    U1,
    /// `unwrap()`/`expect()` in library code.
    P1,
    /// Malformed `lint:allow` suppression.
    A1,
    /// Cycle in the workspace lock-acquisition order graph.
    C1,
    /// Lock guard held across a blocking operation.
    C2,
    /// `Condvar::wait` outside a predicate loop.
    C3,
    /// Raw syscall reachable outside the audited `Poller` API.
    U2,
}

impl Rule {
    /// All rules, in catalog order.
    pub const ALL: [Rule; 11] = [
        Rule::D1,
        Rule::D2,
        Rule::D3,
        Rule::H1,
        Rule::U1,
        Rule::P1,
        Rule::A1,
        Rule::C1,
        Rule::C2,
        Rule::C3,
        Rule::U2,
    ];

    /// The rule's catalog name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::H1 => "H1",
            Rule::U1 => "U1",
            Rule::P1 => "P1",
            Rule::A1 => "A1",
            Rule::C1 => "C1",
            Rule::C2 => "C2",
            Rule::C3 => "C3",
            Rule::U2 => "U2",
        }
    }

    /// Which analysis pass produces the rule's findings: `"lex"` for the
    /// per-file token rules, `"conc"` for the whole-workspace
    /// concurrency/call-graph rules.
    pub fn pass(self) -> &'static str {
        match self {
            Rule::C1 | Rule::C2 | Rule::C3 | Rule::U2 => "conc",
            _ => "lex",
        }
    }

    /// Parses a catalog name.
    pub fn parse(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The trimmed source line (baseline matching key).
    pub snippet: String,
    /// Pinned human-readable description.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// D1 timing allowlist: the only non-test code allowed to read wall
/// clocks or sleep. `rt::bench` and the `rt::obs` timers measure real
/// time by design (and are quarantined from deterministic snapshots);
/// the service and CLI own socket deadlines and poll timeouts;
/// `perfbench` is a timing harness like `rt::bench`.
const D1_ALLOWED: [&str; 5] = [
    "crates/rt/src/bench.rs",
    "crates/rt/src/obs.rs",
    "crates/svc/src/",
    "crates/cli/src/",
    "perfbench/src/",
];

/// D2 scope: crates whose state feeds deterministic snapshots, campaign
/// JSON, or NDJSON traces.
const D2_CRATES: [&str; 3] = ["nvm", "core", "faultsim"];

/// D3 allowlist: the workspace's one sanctioned randomness source.
const D3_ALLOWED: [&str; 1] = ["crates/rt/src/rng.rs"];

/// P1 scope: library crates whose panics would take down a campaign
/// worker or the service.
const P1_CRATES: [&str; 4] = ["core", "nvm", "crypto", "ecc"];

const D1_TOKENS: [&str; 3] = ["SystemTime", "Instant::now", "thread::sleep"];
const D2_TOKENS: [&str; 2] = ["HashMap", "HashSet"];
const D3_TOKENS: [&str; 6] = [
    "thread_rng",
    "from_entropy",
    "OsRng",
    "RandomState",
    "DefaultHasher",
    "rand::",
];

/// How far up a `SAFETY:` comment may sit above its `unsafe` (through
/// attributes and doc comments).
const U1_LOOKBACK: usize = 12;

/// The crate a workspace-relative path belongs to (`crates/nvm/...` →
/// `nvm`); `None` for the umbrella package at the root.
pub fn crate_of(rel: &str) -> Option<&str> {
    let rest = rel.strip_prefix("crates/")?;
    rest.split('/').next()
}

/// True for paths whose whole tree is test/bench/example code.
pub fn is_test_path(rel: &str) -> bool {
    ["tests/", "benches/", "examples/"]
        .iter()
        .any(|d| rel.starts_with(d) || rel.contains(&format!("/{d}")))
}

fn path_allowed(rel: &str, list: &[&str]) -> bool {
    list.iter()
        .any(|p| rel == *p || (p.ends_with('/') && rel.starts_with(p)))
}

/// An inline suppression parsed from a comment.
struct Allow {
    rule: Rule,
}

/// Parses the `lint:allow(RULE, reason)` occurrences in one comment.
/// Returns the valid allows and whether a malformed attempt was seen.
///
/// To count as an *attempt* (and thus be eligible for A1), the token
/// after `lint:allow(` must look like a rule name — an ASCII capital
/// followed by a digit. Prose such as ``lint:allow(<RULE>, <reason>)``
/// in documentation is ignored.
fn parse_allows(comment: &str) -> (Vec<Allow>, bool) {
    let mut allows = Vec::new();
    let mut malformed = false;
    let mut rest = comment;
    while let Some(pos) = rest.find("lint:allow(") {
        rest = &rest[pos + "lint:allow(".len()..];
        let name: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric())
            .collect();
        let looks_like_rule = name.len() == 2
            && name.as_bytes()[0].is_ascii_uppercase()
            && name.as_bytes()[1].is_ascii_digit();
        if !looks_like_rule {
            continue;
        }
        let after = &rest[name.len()..];
        let Some(close) = after.rfind(')') else {
            malformed = true;
            continue;
        };
        let body = &after[..close];
        let reason = body.strip_prefix(',').map(str::trim).unwrap_or("");
        match Rule::parse(&name) {
            Some(rule) if !reason.is_empty() => allows.push(Allow { rule }),
            _ => malformed = true,
        }
    }
    (allows, malformed)
}

/// Per-file scan state shared by the lex rules and (for suppression and
/// test-region bookkeeping) the conc pass.
pub(crate) struct FileScan<'a> {
    rel: &'a str,
    /// Lexed code/comment channels, one per source line.
    pub(crate) lines: Vec<SourceLine>,
    /// `in_test[k]` marks 0-based line `k` as test code.
    pub(crate) in_test: Vec<bool>,
    raw_lines: Vec<&'a str>,
    /// allows[k] = rules suppressed for line k (0-based).
    allows: Vec<Vec<Rule>>,
}

impl<'a> FileScan<'a> {
    /// Lexes `source` and collects suppressions; the second return is
    /// the A1 findings (malformed `lint:allow`) seen along the way.
    pub(crate) fn new(rel: &'a str, source: &'a str) -> (Self, Vec<Violation>) {
        let lines = lexer::lex(source);
        let in_test = if is_test_path(rel) {
            vec![true; lines.len()]
        } else {
            lexer::test_regions(&lines)
        };
        let raw_lines: Vec<&str> = source.lines().collect();
        let mut allows = vec![Vec::new(); lines.len()];
        let mut violations = Vec::new();
        for (k, line) in lines.iter().enumerate() {
            if line.comment.is_empty() {
                continue;
            }
            let (parsed, malformed) = parse_allows(&line.comment);
            if malformed {
                violations.push(Violation {
                    rule: Rule::A1,
                    path: rel.to_string(),
                    line: k + 1,
                    snippet: snippet_at(&raw_lines, k),
                    message: "malformed lint:allow (expected lint:allow(RULE, reason))"
                        .to_string(),
                });
            }
            allows[k].extend(parsed.into_iter().map(|a| a.rule));
        }
        (
            Self {
                rel,
                lines,
                in_test,
                raw_lines,
                allows,
            },
            violations,
        )
    }

    /// True if `rule` is suppressed at 0-based line `k`: an allow on the
    /// same line, or on a directly-preceding run of comment-only lines.
    fn allowed(&self, k: usize, rule: Rule) -> bool {
        if self.allows[k].contains(&rule) {
            return true;
        }
        let mut j = k;
        while j > 0 {
            j -= 1;
            let l = &self.lines[j];
            if !l.code.trim().is_empty() || l.comment.is_empty() {
                return false;
            }
            if self.allows[j].contains(&rule) {
                return true;
            }
        }
        false
    }

    /// Appends a violation at 0-based line `k` unless suppressed there.
    pub(crate) fn push(&self, out: &mut Vec<Violation>, rule: Rule, k: usize, message: String) {
        if self.allowed(k, rule) {
            return;
        }
        out.push(Violation {
            rule,
            path: self.rel.to_string(),
            line: k + 1,
            snippet: snippet_at(&self.raw_lines, k),
            message,
        });
    }
}

fn snippet_at(raw_lines: &[&str], k: usize) -> String {
    let line = raw_lines.get(k).copied().unwrap_or("");
    let trimmed = line.trim();
    let mut s: String = trimmed.chars().take(160).collect();
    if s.len() < trimmed.len() {
        s.push_str("...");
    }
    s
}

/// Lints one Rust source file. `rel` is the workspace-relative path
/// (`/`-separated); it determines crate scoping and test classification.
pub fn lint_rust_source(rel: &str, source: &str) -> Vec<Violation> {
    let (scan, mut out) = FileScan::new(rel, source);
    let krate = crate_of(rel);
    let d1_applies = !path_allowed(rel, &D1_ALLOWED);
    let d2_applies = krate.is_some_and(|c| D2_CRATES.contains(&c));
    let d3_applies = !path_allowed(rel, &D3_ALLOWED);
    let p1_applies = krate.is_some_and(|c| P1_CRATES.contains(&c));

    for k in 0..scan.lines.len() {
        let code = scan.lines[k].code.as_str();
        if code.trim().is_empty() {
            continue;
        }
        let in_test = scan.in_test[k];

        if !in_test {
            if d1_applies {
                for tok in D1_TOKENS {
                    if lexer::has_token(code, tok) {
                        scan.push(
                            &mut out,
                            Rule::D1,
                            k,
                            format!("wall-clock time source `{tok}` in deterministic code"),
                        );
                        break;
                    }
                }
            }
            if d2_applies {
                for tok in D2_TOKENS {
                    if lexer::has_token(code, tok) {
                        scan.push(
                            &mut out,
                            Rule::D2,
                            k,
                            format!(
                                "hash-ordered `{tok}` in a deterministic crate \
                                 (use BTreeMap/BTreeSet or an indexed structure)"
                            ),
                        );
                        break;
                    }
                }
            }
            if d3_applies {
                for tok in D3_TOKENS {
                    if lexer::has_token(code, tok) {
                        scan.push(
                            &mut out,
                            Rule::D3,
                            k,
                            format!(
                                "randomness source `{tok}` outside soteria-rt::rng"
                            ),
                        );
                        break;
                    }
                }
            }
            if p1_applies {
                for (tok, shown) in [(".unwrap()", "unwrap()"), (".expect(", "expect()")] {
                    if code.contains(tok) {
                        scan.push(
                            &mut out,
                            Rule::P1,
                            k,
                            format!(
                                "`{shown}` in library code (return an error, or document \
                                 the invariant with lint:allow)"
                            ),
                        );
                        break;
                    }
                }
            }
        }

        // U1 applies everywhere, test code included.
        if lexer::has_token(code, "unsafe") && !u1_documented(&scan, k) {
            scan.push(
                &mut out,
                Rule::U1,
                k,
                "unsafe without a `// SAFETY:` comment".to_string(),
            );
        }
    }
    out
}

/// True if the `unsafe` on 0-based line `k` has a `SAFETY:` comment on
/// the same line or on the contiguous run of comment/attribute lines
/// directly above it.
fn u1_documented(scan: &FileScan<'_>, k: usize) -> bool {
    if scan.lines[k].comment.contains("SAFETY:") {
        return true;
    }
    let mut j = k;
    for _ in 0..U1_LOOKBACK {
        if j == 0 {
            return false;
        }
        j -= 1;
        let l = &scan.lines[j];
        let code = l.code.trim();
        let attached = code.is_empty() || code.starts_with("#[") || code.ends_with(']');
        if !attached {
            return false;
        }
        if code.is_empty() && l.comment.is_empty() {
            return false; // blank line detaches the comment run
        }
        if l.comment.contains("SAFETY:") {
            return true;
        }
    }
    false
}

/// Lints one `Cargo.toml` for the hermetic-build policy (H1): every
/// dependency in a `[dependencies]`-like section must resolve inside the
/// workspace (`path = ...` or `workspace = true`).
pub fn lint_cargo_toml(rel: &str, source: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut in_deps = false;
    // Section-per-dependency form: [dependencies.foo] — any line in the
    // section may satisfy the policy.
    let mut dep_section: Option<(String, usize, String, bool)> = None;
    let raw_lines: Vec<&str> = source.lines().collect();
    let flush =
        |section: &mut Option<(String, usize, String, bool)>, out: &mut Vec<Violation>| {
            if let Some((name, line, snippet, ok)) = section.take() {
                if !ok {
                    out.push(Violation {
                        rule: Rule::H1,
                        path: rel.to_string(),
                        line,
                        snippet,
                        message: format!(
                            "external dependency `{name}` (hermetic build: \
                             path or workspace entries only)"
                        ),
                    });
                }
            }
        };
    for (k, raw) in raw_lines.iter().enumerate() {
        let line = strip_toml_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            flush(&mut dep_section, &mut out);
            let name = line.trim_matches(|c| c == '[' || c == ']');
            let segments: Vec<&str> = name.split('.').collect();
            let dep_kinds = ["dependencies", "dev-dependencies", "build-dependencies"];
            let kind_at = segments
                .iter()
                .position(|s| dep_kinds.contains(s));
            match kind_at {
                Some(i) if i + 1 < segments.len() => {
                    // [dependencies.foo] — judge the whole section.
                    in_deps = false;
                    dep_section = Some((
                        segments[i + 1..].join("."),
                        k + 1,
                        snippet_at(&raw_lines, k),
                        false,
                    ));
                }
                Some(_) => in_deps = true,
                None => in_deps = false,
            }
            continue;
        }
        if let Some(section) = &mut dep_section {
            if hermetic_value(&line) {
                section.3 = true;
            }
            continue;
        }
        if !in_deps {
            continue;
        }
        // `name = value`, `name = { ... }`, or dotted `name.key = value`.
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let name = key
            .trim()
            .trim_matches('"')
            .split('.')
            .next()
            .unwrap_or("")
            .trim_matches('"')
            .to_string();
        if name.is_empty() {
            continue;
        }
        if !hermetic_value(key) && !hermetic_value(value) {
            out.push(Violation {
                rule: Rule::H1,
                path: rel.to_string(),
                line: k + 1,
                snippet: snippet_at(&raw_lines, k),
                message: format!(
                    "external dependency `{name}` (hermetic build: \
                     path or workspace entries only)"
                ),
            });
        }
    }
    flush(&mut dep_section, &mut out);
    out
}

/// True if a dependency key or value ties the entry to the workspace.
fn hermetic_value(s: &str) -> bool {
    let squeezed: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    squeezed.contains("path=") || squeezed.contains("workspace=true") || squeezed.ends_with(".workspace")
}

fn strip_toml_comment(line: &str) -> &str {
    // Good enough for this workspace: no `#` inside quoted TOML strings.
    match line.find('#') {
        Some(p) => &line[..p],
        None => line,
    }
}
