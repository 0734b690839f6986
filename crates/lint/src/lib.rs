//! `drywells-lint` — the workspace invariant linter.
//!
//! Generic tools check generic properties; this crate checks the ones
//! the reproduction's credibility actually rests on (DESIGN.md §4e):
//!
//! | rule | invariant |
//! |---|---|
//! | `L1 narrowing-cast` | no silent integer truncation in codecs (`as u8/u16/u32`) |
//! | `L2 panic-path` | no `unwrap`/`expect`/`panic!`/`unreachable!` in non-test library code |
//! | `L3 wall-clock` | no `SystemTime::now`/`Instant::now` outside `obs` and `serve` |
//! | `L5 stray-spawn` | no `thread::spawn` outside `bgpsim::par` / `serve::server` |
//! | `L6 shim-import` | no direct imports from the vendored shim tree |
//! | `L7 lock-order` | no cycles in the acquired-while-held lock graph |
//! | `L8 atomic-ordering` | no Relaxed publication, no single-atomic SeqCst |
//! | `L9 determinism-flow` | no hash iteration order reaching an output sink |
//! | `L10 error-swallow` | no silently discarded `Result`s in library code |
//!
//! (`L4`, the per-line hash-collection ban, was retired in favour of
//! the flow-aware `L9`; the id is never reused.)
//!
//! The analyzer is a real token stream ([`lexer`]) under a
//! brace-matched item tree ([`ast`]); L7 builds a workspace-wide lock
//! graph ([`graph`]) and the other flow rules walk per-function token
//! ranges ([`flow`]). Pre-existing findings live in a committed,
//! fingerprinted baseline ([`baseline`]); the gate fails on anything
//! new **and** on stale entries, so the totals ratchet monotonically
//! toward zero. Run it as `repro lint`, `just lint`, or the
//! `drywells-lint` binary: both take the flags of [`cli`], and
//! `--format json` emits a SARIF-shaped report for CI annotation.

pub mod ast;
pub mod baseline;
pub mod cli;
pub mod flow;
pub mod graph;
pub mod lexer;
pub mod rules;

pub use rules::{scan_manifest, scan_source, scan_workspace, Finding, Rule, ALL_RULES};

use baseline::BaselineEntry;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Name of the committed baseline file at the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.txt";

/// Directories under the workspace root that contain lintable source.
/// The vendored shim tree is deliberately absent: the shims mimic
/// external crates, so the workspace's invariants are not theirs.
const SCAN_ROOTS: [&str; 3] = ["crates", "tests", "examples"];

/// Directory names never descended into. `fixtures` holds the lint
/// crate's own deliberately-violating test inputs.
const SKIP_DIRS: [&str; 4] = ["target", ".git", "fixtures", "node_modules"];

/// Read every lintable workspace file as `(relative path, contents)`.
pub fn collect_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for sub in SCAN_ROOTS {
        let dir = root.join(sub);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut out = Vec::with_capacity(files.len());
    for file in files {
        let rel = relative(root, &file);
        let source = fs::read_to_string(&file)?;
        out.push((rel, source));
    }
    Ok(out)
}

/// Walk the workspace and lint every Rust source file plus every
/// per-crate manifest. Findings come back sorted by (path, line).
pub fn collect_findings(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(scan_workspace(&collect_sources(root)?))
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
    Ok(())
}

/// `root`-relative path with `/` separators (stable across platforms,
/// so fingerprints match everywhere).
fn relative(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Locate the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// One finding with its ratchet disposition, ready for any renderer.
pub struct ReportRow {
    pub finding: Finding,
    /// FNV-1a fingerprint of the trimmed excerpt.
    pub hash: String,
    /// Index among same-(rule, path, hash) findings, for duplicates.
    pub occurrence: usize,
    /// Not covered by the baseline — fails the gate.
    pub is_new: bool,
}

/// The outcome of one full lint run, ready for rendering.
pub struct LintReport {
    /// Every finding, fingerprinted and classified.
    pub rows: Vec<ReportRow>,
    /// Baseline entries no current finding matches.
    pub stale_entries: Vec<BaselineEntry>,
    /// Unparseable baseline lines (fail the gate on their own).
    pub parse_errors: Vec<String>,
    /// Per-rule `(rule, baselined, new)` counts.
    pub per_rule: Vec<(Rule, usize, usize)>,
    /// Did the gate pass?
    pub ok: bool,
}

impl LintReport {
    /// Render the human report: new findings first, then stale
    /// entries, then the one-line-per-rule ratchet summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.parse_errors {
            out.push_str(e);
            out.push('\n');
        }
        for row in self.rows.iter().filter(|r| r.is_new) {
            let f = &row.finding;
            out.push_str(&format!(
                "{}:{}: {} {}\n",
                f.path,
                f.line,
                f.rule.id(),
                f.message
            ));
        }
        for e in &self.stale_entries {
            out.push_str(&format!(
                "stale baseline entry (finding fixed? strike it via `repro lint \
                 --update-baseline`): {} {} {}#{}\n",
                e.rule.id(),
                e.path,
                e.hash,
                e.occurrence
            ));
        }
        let baselined: usize = self.per_rule.iter().map(|(_, b, _)| b).sum();
        let new: usize = self.per_rule.iter().map(|(_, _, n)| n).sum();
        for (rule, b, n) in &self.per_rule {
            out.push_str(&format!(
                "{} {:<16} {:>4} baselined, {} new\n",
                rule.id(),
                format!("{}:", rule.name()),
                b,
                n
            ));
        }
        out.push_str(&if self.ok {
            format!("lint: clean ({baselined} baselined, 0 new, 0 stale)\n")
        } else {
            format!(
                "lint: FAILED ({} new, {} stale, {} baselined)\n",
                new,
                self.stale_entries.len(),
                baselined
            )
        });
        out
    }

    /// Render the report as a SARIF-shaped JSON document: a `results`
    /// array of `{ruleId, level, message.text, locations[0]
    /// .physicalLocation.{artifactLocation.uri, region.startLine},
    /// partialFingerprints}` objects, with new findings at `error`
    /// level and baselined ones at `note`. Consumed by the CI
    /// annotation step and round-trippable through the serde_json
    /// shim.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"$schema\": \"drywells-lint-json-v1\",\n");
        out.push_str("  \"tool\": {\"name\": \"drywells-lint\", \"rules\": [");
        for (i, r) in ALL_RULES.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"id\": {}, \"name\": {}}}",
                json_str(r.id()),
                json_str(r.name())
            ));
        }
        out.push_str("]},\n");
        let new: usize = self.rows.iter().filter(|r| r.is_new).count();
        out.push_str(&format!(
            "  \"ok\": {},\n  \"summary\": {{\"baselined\": {}, \"new\": {}, \"stale\": {}}},\n",
            self.ok,
            self.rows.len() - new,
            new,
            self.stale_entries.len()
        ));
        out.push_str("  \"results\": [");
        for (i, row) in self.rows.iter().enumerate() {
            let f = &row.finding;
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            out.push_str(&format!(
                "{{\"ruleId\": {rule}, \"level\": {level}, \"message\": {{\"text\": {msg}}}, \
                 \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": \
                 {{\"uri\": {uri}}}, \"region\": {{\"startLine\": {line}}}}}}}], \
                 \"partialFingerprints\": {{\"excerptHash/v1\": {fp}}}}}",
                rule = json_str(f.rule.id()),
                level = json_str(if row.is_new { "error" } else { "note" }),
                msg = json_str(&f.message),
                uri = json_str(&f.path),
                line = f.line,
                fp = json_str(&format!("{}#{}", row.hash, row.occurrence)),
            ));
        }
        out.push_str("\n  ],\n  \"staleEntries\": [");
        for (i, e) in self.stale_entries.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            out.push_str(&format!(
                "{{\"ruleId\": {}, \"uri\": {}, \"fingerprint\": {}}}",
                json_str(e.rule.id()),
                json_str(&e.path),
                json_str(&format!("{}#{}", e.hash, e.occurrence)),
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// JSON string literal with the escapes the report can actually
/// contain (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Run the full gate: scan, compare against the baseline at
/// `baseline_path`, and (in update mode) rewrite it. A missing
/// baseline file is an empty baseline.
pub fn run(root: &Path, baseline_path: &Path, update: bool) -> io::Result<LintReport> {
    let findings = collect_findings(root)?;
    if update {
        fs::write(baseline_path, baseline::render(&findings))?;
    }
    let baseline_text = match fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    let entries = match baseline::parse(&baseline_text) {
        Ok(entries) => entries,
        Err(errors) => {
            return Ok(LintReport {
                rows: baseline::keyed(&findings)
                    .into_iter()
                    .map(|(entry, f)| ReportRow {
                        finding: f.clone(),
                        hash: entry.hash,
                        occurrence: entry.occurrence,
                        is_new: false,
                    })
                    .collect(),
                stale_entries: Vec::new(),
                parse_errors: errors,
                per_rule: ALL_RULES.iter().map(|&r| (r, 0, 0)).collect(),
                ok: false,
            })
        }
    };
    let verdict = baseline::ratchet(&findings, &entries);
    let rows: Vec<ReportRow> = baseline::keyed(&findings)
        .into_iter()
        .map(|(entry, f)| ReportRow {
            // `verdict.new` borrows from the same `findings` vec, so
            // identity comparison is exact even for same-line dupes.
            is_new: verdict.new.iter().any(|nf| std::ptr::eq(*nf, f)),
            finding: f.clone(),
            hash: entry.hash,
            occurrence: entry.occurrence,
        })
        .collect();
    let ok = verdict.clean();
    let per_rule = verdict.per_rule;
    Ok(LintReport {
        rows,
        stale_entries: verdict.stale,
        parse_errors: Vec::new(),
        per_rule,
        ok,
    })
}
