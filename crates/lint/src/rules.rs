//! The invariant rules and the workspace analyzer that applies them.
//!
//! Each rule maps to a guarantee the reproduction's outputs depend on
//! (see DESIGN.md §4e). The lexical rules (L1–L6) scan the masked
//! views from [`crate::lexer`]; the flow rules (L7–L10) walk the
//! token stream through the item tree from [`crate::ast`] — L7 builds
//! a workspace-wide lock graph ([`crate::graph`]) and is therefore a
//! *workspace* rule, which is why the analyzer entry point is
//! [`scan_workspace`] over all files at once. Every rule can be
//! silenced per line with `// lint:allow(Ln): reason`.

use crate::ast::{parse, ItemTree};
use crate::graph::{self, LockGraph};
#[cfg(test)]
use crate::lexer::TokenKind;
use crate::lexer::{lex, Lexed};

/// A rule identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum Rule {
    /// Bare narrowing casts (`as u8`/`as u16`/`as u32`).
    L1,
    /// `unwrap`/`expect`/`panic!`/`unreachable!` in non-test library code.
    L2,
    /// Wall-clock reads outside the observability and serving crates.
    L3,
    /// `thread::spawn` outside the sanctioned pool implementations.
    L5,
    /// Direct imports from `shims/` paths.
    L6,
    /// Lock-order cycles in the acquired-while-held graph.
    L7,
    /// Atomic-ordering misuse: Relaxed publication, needless SeqCst.
    L8,
    /// Hash-collection iteration order reaching an output sink.
    L9,
    /// Discarded `Result`s (`let _ = fallible()` / `.ok();`).
    L10,
}

/// Every rule, in report order. L4 (per-line hash-collection ban) was
/// retired in favour of the flow-aware L9; its id is never reused.
pub const ALL_RULES: [Rule; 9] = [
    Rule::L1,
    Rule::L2,
    Rule::L3,
    Rule::L5,
    Rule::L6,
    Rule::L7,
    Rule::L8,
    Rule::L9,
    Rule::L10,
];

impl Rule {
    /// The short id used in reports, baselines, and allow directives.
    pub fn id(self) -> &'static str {
        match self {
            Rule::L1 => "L1",
            Rule::L2 => "L2",
            Rule::L3 => "L3",
            Rule::L5 => "L5",
            Rule::L6 => "L6",
            Rule::L7 => "L7",
            Rule::L8 => "L8",
            Rule::L9 => "L9",
            Rule::L10 => "L10",
        }
    }

    /// A one-word name for summaries.
    pub fn name(self) -> &'static str {
        match self {
            Rule::L1 => "narrowing-cast",
            Rule::L2 => "panic-path",
            Rule::L3 => "wall-clock",
            Rule::L5 => "stray-spawn",
            Rule::L6 => "shim-import",
            Rule::L7 => "lock-order",
            Rule::L8 => "atomic-ordering",
            Rule::L9 => "determinism-flow",
            Rule::L10 => "error-swallow",
        }
    }

    /// Parse an id as written in a baseline file or allow directive.
    pub fn parse(s: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.id() == s)
    }

    /// The invariant the rule protects, for `repro lint --explain Ln`.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::L1 => {
                "L1 narrowing-cast — no silent integer truncation.\n\
                 A bare `as u8`/`as u16`/`as u32` discards high bits without a\n\
                 trace; in the MRT and delegation codecs that corrupts archives\n\
                 byte-identically enough to pass casual diffing. Use\n\
                 `uN::try_from(x)` and handle the error, or justify the cast\n\
                 with `// lint:allow(L1): why` when the range is proven."
            }
            Rule::L2 => {
                "L2 panic-path — library code must not panic.\n\
                 `unwrap`/`expect`/`panic!`/`unreachable!` in non-test library\n\
                 code turns a recoverable condition into a worker death; the\n\
                 serving layer and the figure pipeline both run under pools\n\
                 that must outlive any one request or chunk. Return an error,\n\
                 or `// lint:allow(L2): why` when the panic is load-bearing."
            }
            Rule::L3 => {
                "L3 wall-clock — deterministic code may not read the clock.\n\
                 `SystemTime::now`/`Instant::now` outside crates/obs and\n\
                 crates/serve leaks nondeterminism into artifacts that must\n\
                 reproduce byte-identically run to run. Plumb time in as an\n\
                 argument, or `// lint:allow(L3): why` for true diagnostics."
            }
            Rule::L5 => {
                "L5 stray-spawn — all parallelism goes through the pools.\n\
                 `thread::spawn` outside bgpsim::par and serve::server\n\
                 bypasses the bounded worker pools, breaking both the\n\
                 determinism argument (ordered chunk merge) and load shedding."
            }
            Rule::L6 => {
                "L6 shim-import — the vendored shim tree is not a crate path.\n\
                 Importing from the shim directory directly (via `#[path]`,\n\
                 `include!`, or a manifest path dependency) bypasses\n\
                 [workspace.dependencies], so the shim can no longer be\n\
                 swapped for the real crate."
            }
            Rule::L7 => {
                "L7 lock-order — no cycles in the acquired-while-held graph.\n\
                 Every Mutex/RwLock field, static, and local is a node; an\n\
                 edge A→B is recorded when B is acquired while a guard for A\n\
                 is live (scope- and drop()-aware, across serve, obs, and\n\
                 bgpsim::par). A cycle means two threads can take the same\n\
                 locks in opposite orders and deadlock; the finding prints\n\
                 the witness path with every hold and acquisition site.\n\
                 Fix by ordering acquisitions consistently or dropping the\n\
                 first guard before taking the second."
            }
            Rule::L8 => {
                "L8 atomic-ordering — orderings must match the data flow.\n\
                 A `store(_, Ordering::Relaxed)` that publishes data written\n\
                 just before it lets another thread observe the flag without\n\
                 the data (needs Release, paired with Acquire loads). And\n\
                 SeqCst in a function that touches only one atomic buys a\n\
                 global order nobody consumes — use the cheapest ordering\n\
                 that is correct, or `// lint:allow(L8): why`."
            }
            Rule::L9 => {
                "L9 determinism-flow — hash iteration order must not reach\n\
                 output. HashMap/HashSet in deterministic crates is fine as\n\
                 a keyed store; it becomes a finding only when iteration\n\
                 order (or float summation order) can reach an output sink:\n\
                 format!/write!-family macros, push/extend into emitted\n\
                 buffers, encoders, or `.collect::<Vec<_>>()` that is never\n\
                 sorted. Replaces the retired per-line L4. Fix with BTreeMap/\n\
                 BTreeSet or by sorting before emission."
            }
            Rule::L10 => {
                "L10 error-swallow — Results must be checked in library code.\n\
                 `let _ = fallible()` and statement-level `.ok();` silently\n\
                 drop errors that the caller then can't distinguish from\n\
                 success (half-written files, lost socket errors). Propagate\n\
                 with `?`, log explicitly, or `// lint:allow(L10): why`."
            }
        }
    }
}

/// One rule violation at a specific source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed (also the fingerprint input).
    pub excerpt: String,
    /// What is wrong and how to fix or allowlist it.
    pub message: String,
}

/// Crates whose output must be byte-deterministic (figures, CSVs, MRT
/// archives, delegation tables) and therefore may not let hash
/// iteration reach output: [`Rule::L9`]'s scope.
const DETERMINISTIC_CRATES: [&str; 8] = [
    "bgpsim",
    "core",
    "delegation",
    "market",
    "nettypes",
    "registry",
    "rpki",
    "rdap",
];

/// Crates allowed to read the wall clock ([`Rule::L3`]): metrics and
/// socket timeouts are *about* real time.
const CLOCK_CRATES: [&str; 2] = ["obs", "serve"];

/// Files allowed to spawn raw threads ([`Rule::L5`]): the worker-pool
/// implementations everything else is supposed to go through.
const SPAWN_FILES: [&str; 2] = ["crates/bgpsim/src/par.rs", "crates/serve/src/server.rs"];

/// Is `path` in [`Rule::L7`]'s scope — the concurrent subsystems whose
/// locks interleave at runtime?
fn lock_scope(path: &str) -> bool {
    path.starts_with("crates/serve/")
        || path.starts_with("crates/obs/")
        || path == "crates/bgpsim/src/par.rs"
}

/// Is this path dev/test code (workspace-level tests and examples,
/// per-crate `tests/` and `benches/` directories)?
fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.starts_with("examples/")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
}

/// The crate a `crates/<name>/…` path belongs to.
fn crate_of(path: &str) -> Option<&str> {
    path.strip_prefix("crates/")?.split('/').next()
}

/// Scan one Rust source file in isolation. Workspace-level rules (L7)
/// see only this file — fine for single-file lock cycles, which is
/// what the fixtures exercise; the real gate goes through
/// [`scan_workspace`].
pub fn scan_source(path: &str, source: &str) -> Vec<Finding> {
    scan_workspace(&[(path.to_string(), source.to_string())])
}

/// Scan a set of workspace files — `(relative path, contents)` pairs,
/// `.rs` sources and `Cargo.toml` manifests. Findings come back
/// sorted by (path, line, rule).
pub fn scan_workspace(files: &[(String, String)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut sources: Vec<(&str, Lexed<'_>, ItemTree)> = Vec::new();
    for (path, text) in files {
        if path.ends_with(".rs") {
            let lx = lex(text);
            let tree = parse(&lx);
            sources.push((path, lx, tree));
        } else {
            findings.extend(scan_manifest(path, text));
        }
    }

    for (path, lx, tree) in &sources {
        findings.extend(scan_file(path, lx, tree));
    }

    // L7 — the lock graph spans files; cycles anchor at their first
    // edge's acquisition site.
    let scoped: Vec<(&str, &Lexed<'_>, &ItemTree)> = sources
        .iter()
        .filter(|(p, _, _)| lock_scope(p))
        .map(|(p, lx, tree)| (*p, lx, tree))
        .collect();
    if !scoped.is_empty() {
        let g = graph::build(&scoped);
        for cycle in g.cycles() {
            let anchor = cycle[0];
            let Some((_, lx, _)) = sources.iter().find(|(p, _, _)| *p == anchor.path) else {
                continue;
            };
            if lx.allowed(anchor.line, "L7") {
                continue;
            }
            findings.push(Finding {
                rule: Rule::L7,
                path: anchor.path.clone(),
                line: anchor.line,
                excerpt: excerpt_of(lx.src, anchor.line),
                message: LockGraph::witness(&cycle),
            });
        }
    }

    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    findings
}

/// The trimmed source line `line` (1-based) of `src`.
fn excerpt_of(src: &str, line: usize) -> String {
    src.lines()
        .nth(line.saturating_sub(1))
        .map(|l| l.trim().to_string())
        .unwrap_or_default()
}

/// All per-file rules over one lexed + parsed source file.
fn scan_file(path: &str, lexed: &Lexed<'_>, tree: &ItemTree) -> Vec<Finding> {
    let test_file = is_test_path(path);
    let this_crate = crate_of(path);
    let test_spans = tree.test_lines();
    let in_test = |line: usize| test_spans.iter().any(|&(a, b)| line >= a && line <= b);

    let mut findings = Vec::new();
    let mut push = |rule: Rule, line: usize, message: String| {
        if lexed.allowed(line, rule.id()) {
            return;
        }
        findings.push(Finding {
            rule,
            path: path.to_string(),
            line,
            excerpt: excerpt_of(lexed.src, line),
            message,
        });
    };

    // L1/L5/L8/L9/L10 (and L2) exempt test code: a cast or unwrap in
    // a test cannot corrupt an artifact or take down a serving worker.
    let in_lib = |line: usize| !test_file && !in_test(line);

    // L1 — narrowing casts.
    for (line, width) in narrowing_casts(lexed) {
        if in_lib(line) {
            push(
                Rule::L1,
                line,
                format!(
                    "bare narrowing cast `as {width}` can silently truncate; use \
                     `{width}::try_from(…)` or justify with `// lint:allow(L1): why`"
                ),
            );
        }
    }

    // L2 — panic paths in library code.
    for (line, what) in panic_sites(lexed) {
        if in_lib(line) {
            push(
                Rule::L2,
                line,
                format!(
                    "`{what}` in non-test library code can panic; return an error \
                     (or `// lint:allow(L2): why` if the panic is load-bearing)"
                ),
            );
        }
    }

    // L3 — wall-clock reads. Applies to tests too (a nondeterministic
    // test is still a flaky test); only the clock crates are exempt.
    if !this_crate.is_some_and(|c| CLOCK_CRATES.contains(&c)) {
        for (line, what) in clock_sites(lexed) {
            push(
                Rule::L3,
                line,
                format!(
                    "`{what}` outside crates/obs and crates/serve risks wall-clock \
                     nondeterminism in artifacts; plumb time in explicitly or \
                     `// lint:allow(L3): why`"
                ),
            );
        }
    }

    // L5 — raw thread spawns outside the pool implementations.
    if !SPAWN_FILES.contains(&path) {
        for line in spawn_sites(lexed) {
            if in_lib(line) {
                push(
                    Rule::L5,
                    line,
                    "`thread::spawn` outside bgpsim::par and serve::server bypasses the \
                     bounded pools; use them (or `// lint:allow(L5): why`)"
                        .to_string(),
                );
            }
        }
    }

    // L6 — direct shim imports. Scans the strings-kept view because
    // `#[path = "…/shims/…"]` and `include!("…/shims/…")` put the
    // offending path inside a string literal. Applies everywhere.
    for line in shim_sites(lexed) {
        push(
            Rule::L6,
            line,
            "direct import from the vendored shim tree bypasses the workspace \
             dependency table; depend on the shim crate via `{ workspace = true }`"
                .to_string(),
        );
    }

    // L8 — atomic-ordering audit, per function.
    for (line, message) in crate::flow::atomic_findings(lexed, tree) {
        if in_lib(line) {
            push(Rule::L8, line, message);
        }
    }

    // L9 — determinism-flow, only in deterministic-output crates.
    if this_crate.is_some_and(|c| DETERMINISTIC_CRATES.contains(&c)) {
        for (line, what) in crate::flow::hash_flow_findings(lexed, tree) {
            if in_lib(line) {
                push(
                    Rule::L9,
                    line,
                    format!(
                        "`{what}` iteration order can reach an output sink in a \
                         deterministic-output crate; use `BTree{}` or sort before \
                         emitting (or `// lint:allow(L9): why`)",
                        &what[4..]
                    ),
                );
            }
        }
    }

    // L10 — swallowed Results in library code.
    for (line, what) in crate::flow::swallow_sites(lexed, tree) {
        if in_lib(line) {
            push(
                Rule::L10,
                line,
                format!(
                    "{what} discards a Result silently; propagate with `?`, handle \
                     the error, or `// lint:allow(L10): why`"
                ),
            );
        }
    }

    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// Scan a `Cargo.toml` under `crates/` for direct `shims/` path
/// dependencies ([`Rule::L6`] at the manifest layer).
pub fn scan_manifest(path: &str, source: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("");
        // lint:allow(L6): the rule's own needle, not an import
        if line.contains("shims/") {
            findings.push(Finding {
                rule: Rule::L6,
                path: path.to_string(),
                line: idx + 1,
                excerpt: raw.trim().to_string(),
                message: "manifest depends on a vendored shim path directly; route it \
                          through [workspace.dependencies] so the shim stays swappable"
                    .to_string(),
            });
        }
    }
    findings
}

/// Byte offset → 1-based line number, for match positions.
fn line_at(code: &str, at: usize) -> usize {
    1 + code.as_bytes()[..at]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Occurrences of `needle` in `hay` whose neighbours satisfy the
/// boundary predicates; yields byte offsets.
fn bounded_matches<'a>(
    hay: &'a str,
    needle: &'a str,
    check_before: bool,
    check_after: bool,
) -> impl Iterator<Item = usize> + 'a {
    let bytes = hay.as_bytes();
    let mut from = 0usize;
    std::iter::from_fn(move || {
        while let Some(off) = hay[from..].find(needle) {
            let at = from + off;
            from = at + 1;
            let ok_before = !check_before || at == 0 || !is_ident(bytes[at - 1]);
            let end = at + needle.len();
            let ok_after = !check_after || end >= bytes.len() || !is_ident(bytes[end]);
            if ok_before && ok_after {
                return Some(at);
            }
        }
        None
    })
}

/// L1 match sites: (line, target width).
fn narrowing_casts(lexed: &Lexed) -> Vec<(usize, &'static str)> {
    let code = &lexed.code;
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for at in bounded_matches(code, "as", true, true) {
        // Skip whitespace after `as` (casts may wrap lines).
        let mut j = at + 2;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        for width in ["u8", "u16", "u32"] {
            let end = j + width.len();
            if code[j..].starts_with(width) && (end >= bytes.len() || !is_ident(bytes[end])) {
                out.push((line_at(code, at), width));
                break;
            }
        }
    }
    out
}

/// L2 match sites: (line, which construct).
fn panic_sites(lexed: &Lexed) -> Vec<(usize, &'static str)> {
    let code = &lexed.code;
    let mut out = Vec::new();
    for at in bounded_matches(code, ".unwrap()", false, false) {
        out.push((line_at(code, at), ".unwrap()"));
    }
    for at in bounded_matches(code, ".expect(", false, false) {
        out.push((line_at(code, at), ".expect(…)"));
    }
    for at in bounded_matches(code, "panic!", true, false) {
        out.push((line_at(code, at), "panic!"));
    }
    for at in bounded_matches(code, "unreachable!", true, false) {
        out.push((line_at(code, at), "unreachable!"));
    }
    out
}

/// L3 match sites: (line, which clock).
fn clock_sites(lexed: &Lexed) -> Vec<(usize, &'static str)> {
    let code = &lexed.code;
    let mut out = Vec::new();
    for at in bounded_matches(code, "SystemTime::now", true, false) {
        out.push((line_at(code, at), "SystemTime::now"));
    }
    for at in bounded_matches(code, "Instant::now", true, false) {
        out.push((line_at(code, at), "Instant::now"));
    }
    out
}

/// L5 match sites.
fn spawn_sites(lexed: &Lexed) -> Vec<usize> {
    bounded_matches(&lexed.code, "thread::spawn", false, true)
        .map(|at| line_at(&lexed.code, at))
        .collect()
}

/// L6 match sites (strings-kept view; deduped per line).
fn shim_sites(lexed: &Lexed) -> Vec<usize> {
    // lint:allow(L6): the rule's own needle, not an import
    let mut lines: Vec<usize> = bounded_matches(&lexed.code_with_strings, "shims/", true, false)
        .map(|at| line_at(&lexed.code_with_strings, at))
        .collect();
    lines.dedup();
    lines
}

// Re-exported for the L9 site anchoring parity check in tests.
#[cfg(test)]
pub(crate) fn hash_mention_lines(lexed: &Lexed) -> Vec<usize> {
    lexed
        .tokens
        .iter()
        .enumerate()
        .filter(|(i, t)| {
            t.kind == TokenKind::Ident && matches!(lexed.text(*i), "HashMap" | "HashSet")
        })
        .map(|(_, t)| t.line)
        .collect()
}

#[cfg(test)]
mod parity {
    use super::*;

    #[test]
    fn mention_lines_match_the_masked_view() {
        let src = "use std::collections::HashMap;\n// HashMap in prose\nlet s = \"HashSet\";\nfn f(m: &HashMap<u8, u8>) {}\n";
        let lx = lex(src);
        assert_eq!(hash_mention_lines(&lx), vec![1, 4]);
        let masked: Vec<usize> = bounded_matches(&lx.code, "HashMap", true, true)
            .map(|at| line_at(&lx.code, at))
            .collect();
        assert_eq!(masked, vec![1, 4]);
    }
}
