//! The command line of the gate, shared by the `drywells-lint` binary
//! and `repro lint`:
//!
//! ```sh
//! drywells-lint                      # gate the workspace from any cwd inside it
//! drywells-lint --update-baseline    # rewrite lint-baseline.txt from current findings
//! drywells-lint --root DIR           # lint a different tree (used by the negative tests)
//! drywells-lint --baseline PATH      # non-default baseline location
//! drywells-lint --list               # print every finding, baselined or not
//! drywells-lint --format json        # SARIF-shaped report on stdout (CI artifact)
//! drywells-lint --explain L7         # the invariant a rule protects
//! ```
//!
//! Exit status: 0 when the ratchet is clean (no new findings, no stale
//! baseline entries), 1 otherwise.

use crate::{collect_findings, find_workspace_root, Rule, ALL_RULES, BASELINE_FILE};
use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parse `args` (without the program name) and run the gate. `prog`
/// names the command in messages and the usage line.
pub fn main(prog: &str, args: &[String]) -> ExitCode {
    let usage = |err: &str| {
        if !err.is_empty() {
            eprintln!("{prog}: {err}");
        }
        eprintln!(
            "usage: {prog} [--root DIR] [--baseline PATH] [--update-baseline] \
             [--list] [--format json|text] [--explain Ln]"
        );
        ExitCode::FAILURE
    };
    let mut root: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut update = false;
    let mut list = false;
    let mut json = false;
    let mut args = args.iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--update-baseline" => update = true,
            "--list" => list = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory"),
            },
            "--baseline" => match args.next() {
                Some(path) => baseline = Some(PathBuf::from(path)),
                None => return usage("--baseline needs a path"),
            },
            "--format" => match args.next().map(String::as_str) {
                Some("json") => json = true,
                Some("text") => json = false,
                Some(other) => return usage(&format!("unknown format {other:?} (json or text)")),
                None => return usage("--format needs a value (json or text)"),
            },
            "--explain" => match args.next() {
                Some(id) => return explain(prog, id),
                None => return usage("--explain needs a rule id (L1…L10)"),
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unexpected argument {other:?}")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("{prog}: no [workspace] Cargo.toml above {}", cwd.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    let baseline = baseline.unwrap_or_else(|| root.join(BASELINE_FILE));

    if list {
        return match collect_findings(&root) {
            Ok(findings) => {
                for f in &findings {
                    println!("{}:{}: {} {}", f.path, f.line, f.rule.id(), f.message);
                }
                println!("{} finding(s)", findings.len());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{prog}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    match crate::run(&root, &baseline, update) {
        Ok(report) => {
            if json {
                print!("{}", report.to_json());
            } else {
                print!("{}", report.render());
            }
            if report.ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{prog}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Print the invariant behind a rule id.
fn explain(prog: &str, id: &str) -> ExitCode {
    match Rule::parse(id) {
        Some(rule) => {
            println!("{}", rule.explain());
            ExitCode::SUCCESS
        }
        None => {
            eprintln!(
                "{prog}: unknown rule {id:?}; known rules: {}",
                ALL_RULES
                    .iter()
                    .map(|r| r.id())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            ExitCode::FAILURE
        }
    }
}
