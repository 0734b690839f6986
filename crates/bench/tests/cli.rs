//! The `repro` binary end to end, at quick scale and on cheap
//! artifacts: `repro list` and the catalogue, `repro lint`'s shared
//! flags, an artifact's text and CSV against the library, and the exit
//! status of bad command lines and of a CSV file that cannot be
//! written.

use drywells::{catalogue, csv, experiments, StudyConfig};
use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn stdout(out: &Output) -> &str {
    std::str::from_utf8(&out.stdout).expect("utf-8 stdout")
}

/// A fresh directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn list_prints_every_catalogue_id_and_succeeds() {
    let out = repro(&["list"]);
    assert!(out.status.success(), "{out:?}");
    let ids: Vec<&str> = stdout(&out)
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let mut want: Vec<&str> = catalogue::ARTIFACTS.iter().map(|a| a.id).collect();
    want.push("all");
    assert_eq!(ids, want);
}

#[test]
fn lint_accepts_the_standalone_linters_list_flag() {
    let out = repro(&["lint", "--list"]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).ends_with("finding(s)\n"), "{}", stdout(&out));
}

#[test]
fn table1_prints_run_alls_table1_body() {
    let all = drywells::run_all(&StudyConfig::quick());
    let body = all
        .split("\n=== ")
        .find_map(|s| s.strip_prefix("Table 1: IPv4 exhaustion timeline ===\n\n"))
        .expect("run_all has Table 1");
    let out = repro(&["table1"]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(stdout(&out), body);
}

#[test]
fn fig2_csv_matches_the_library_export() {
    let dir = scratch_dir("fig2");
    let out = repro(&["fig2", "--csv", dir.to_str().expect("utf-8 path")]);
    assert!(out.status.success(), "{out:?}");
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("csv dir exists")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert_eq!(written, ["fig2_transfers.csv"]);
    let got = std::fs::read_to_string(dir.join("fig2_transfers.csv")).expect("csv readable");
    assert_eq!(
        got,
        csv::fig2_csv(&experiments::fig2::run(&StudyConfig::quick()))
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn unwritable_csv_file_fails_the_command() {
    let dir = scratch_dir("unwritable");
    std::fs::create_dir_all(dir.join("fig2_transfers.csv")).expect("dir in the csv's place");
    let out = repro(&["fig2", "--csv", dir.to_str().expect("utf-8 path")]);
    assert!(!out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fig2_transfers.csv"), "{stderr}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn all_writes_the_other_csv_files_when_one_fails() {
    let dir = scratch_dir("unwritable-all");
    std::fs::create_dir_all(dir.join("fig2_transfers.csv")).expect("dir in the csv's place");
    let out = repro(&["all", "--csv", dir.to_str().expect("utf-8 path")]);
    assert!(!out.status.success(), "{out:?}");
    assert!(
        stdout(&out).contains("=== Table 1"),
        "the text is still printed"
    );
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .expect("csv dir exists")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .filter(|f| f != "fig2_transfers.csv")
        .collect();
    written.sort();
    let mut want: Vec<&str> = catalogue::ARTIFACTS
        .iter()
        .filter_map(|a| a.csv_file)
        .filter(|&f| f != "fig2_transfers.csv")
        .collect();
    want.sort();
    assert_eq!(written, want);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn bad_command_lines_fail() {
    for args in [
        &["fig99"][..],
        &["fig2", "--seed", "seven"],
        &["fig2", "--seed"],
        &["archive"],
        &["archive", "--seed", "7"],
    ] {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}
