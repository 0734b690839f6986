//! Integration tests: each rule against its fixture (exact
//! `file:line:rule` assertions), the tricky negatives, the allow
//! directives, the manifest scan, the ratchet round-trip and JSON
//! report in a temp workspace, the real workspace lock graph, and the
//! real workspace gate.

use lint::{scan_manifest, scan_source, Rule};
use std::fs;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).expect("fixture readable")
}

/// Scan `fixture_name` as if it lived at `as_path`; return the exact
/// (line, rule) pairs, in report order.
fn hits(as_path: &str, fixture_name: &str) -> Vec<(usize, Rule)> {
    scan_source(as_path, &fixture(fixture_name))
        .into_iter()
        .inspect(|f| assert_eq!(f.path, as_path))
        .map(|f| (f.line, f.rule))
        .collect()
}

#[test]
fn l1_flags_the_bare_narrowing_cast() {
    assert_eq!(
        hits("crates/bgpsim/src/l1.rs", "l1_narrowing_cast.rs"),
        vec![(4, Rule::L1)]
    );
}

#[test]
fn l2_flags_every_panic_construct() {
    assert_eq!(
        hits("crates/delegation/src/l2.rs", "l2_panic_path.rs"),
        vec![(4, Rule::L2), (8, Rule::L2), (12, Rule::L2), (16, Rule::L2)]
    );
}

#[test]
fn l3_flags_clock_reads_outside_clock_crates() {
    assert_eq!(
        hits("crates/core/src/l3.rs", "l3_wall_clock.rs"),
        vec![(6, Rule::L3), (10, Rule::L3)]
    );
    // The clock crates are exempt.
    assert_eq!(hits("crates/obs/src/l3.rs", "l3_wall_clock.rs"), vec![]);
    assert_eq!(hits("crates/serve/src/l3.rs", "l3_wall_clock.rs"), vec![]);
}

#[test]
fn l5_flags_spawns_outside_the_pool_files() {
    assert_eq!(
        hits("crates/registry/src/l5.rs", "l5_stray_spawn.rs"),
        vec![(4, Rule::L5)]
    );
    // The sanctioned pool implementations are exempt.
    assert_eq!(
        hits("crates/bgpsim/src/par.rs", "l5_stray_spawn.rs"),
        vec![]
    );
    assert_eq!(
        hits("crates/serve/src/server.rs", "l5_stray_spawn.rs"),
        vec![]
    );
}

#[test]
fn l6_flags_shim_path_attributes_everywhere() {
    // L6 has no test-code or per-crate exemption.
    assert_eq!(
        hits("crates/market/src/l6.rs", "l6_shim_import.rs"),
        vec![(3, Rule::L6)]
    );
    assert_eq!(
        hits("tests/integration.rs", "l6_shim_import.rs"),
        vec![(3, Rule::L6)]
    );
}

#[test]
fn l7_flags_the_two_mutex_cycle_with_a_witness() {
    // The cycle anchors at the acquired-while-held site of its first
    // edge (App.queue held, App.stats acquired in `enqueue`).
    let found = scan_source("crates/serve/src/l7.rs", &fixture("l7_lock_cycle.rs"));
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!((found[0].line, found[0].rule), (15, Rule::L7));
    let msg = &found[0].message;
    assert!(msg.contains("lock-order cycle"), "{msg}");
    assert!(msg.contains("App.queue"), "{msg}");
    assert!(msg.contains("App.stats"), "{msg}");
    assert!(msg.contains("crates/serve/src/l7.rs:"), "{msg}");
    assert!(msg.contains("enqueue") && msg.contains("report"), "{msg}");
}

#[test]
fn l7_is_scoped_to_the_concurrent_subsystems() {
    // The identical cycle outside serve/obs/par is not analyzed: those
    // locks never interleave with the serving layer's at runtime.
    assert_eq!(hits("crates/market/src/l7.rs", "l7_lock_cycle.rs"), vec![]);
}

#[test]
fn l7_dropping_the_guard_breaks_the_cycle() {
    assert_eq!(
        hits("crates/serve/src/l7.rs", "l7_guard_dropped.rs"),
        vec![]
    );
}

#[test]
fn l8_flags_relaxed_publication_and_lone_seqcst_but_not_counters() {
    assert_eq!(
        hits("crates/obs/src/l8.rs", "l8_atomic_orderings.rs"),
        vec![(15, Rule::L8), (20, Rule::L8)]
    );
}

#[test]
fn l9_flags_hash_iteration_reaching_a_sink_in_deterministic_crates() {
    // Findings anchor at the import and the tainted symbol's mention.
    assert_eq!(
        hits("crates/market/src/l9.rs", "l9_hash_to_sink.rs"),
        vec![(5, Rule::L9), (7, Rule::L9)]
    );
    // Outside the deterministic-output crates the same flow is fine.
    assert_eq!(hits("crates/serve/src/l9.rs", "l9_hash_to_sink.rs"), vec![]);
}

#[test]
fn l9_keyed_hash_use_is_clean() {
    assert_eq!(
        hits("crates/market/src/cache.rs", "l9_keyed_cache.rs"),
        vec![]
    );
}

#[test]
fn l10_flags_swallowed_results_but_not_the_write_macro_idiom() {
    assert_eq!(
        hits("crates/nettypes/src/l10.rs", "l10_swallowed_results.rs"),
        vec![(7, Rule::L10), (11, Rule::L10)]
    );
}

#[test]
fn lexer_survives_raw_strings_nested_comments_and_char_escapes() {
    // Raw strings (with and without hashes), a nested block comment,
    // and every char-escape form precede one real violation; a lexer
    // desync would either hide it or leak the masked `panic!`/unwrap.
    assert_eq!(
        hits("crates/rpki/src/lexer.rs", "lexer_tricky.rs"),
        vec![(19, Rule::L2)]
    );
}

#[test]
fn negatives_produce_no_findings() {
    // Casts in string literals, panics in doc comments, clock names in
    // comments, and hash maps under #[cfg(test)] are all silent.
    assert_eq!(
        hits("crates/bgpsim/src/negatives.rs", "negatives.rs"),
        vec![]
    );
}

#[test]
fn test_paths_exempt_everything_but_clocks_and_shims() {
    // The same violating fixtures under a test path go quiet…
    assert_eq!(hits("tests/l1.rs", "l1_narrowing_cast.rs"), vec![]);
    assert_eq!(
        hits("crates/bgpsim/tests/l2.rs", "l2_panic_path.rs"),
        vec![]
    );
    assert_eq!(
        hits("crates/market/benches/l9.rs", "l9_hash_to_sink.rs"),
        vec![]
    );
    assert_eq!(hits("examples/l5.rs", "l5_stray_spawn.rs"), vec![]);
    // …except L3: a nondeterministic test is still a flaky test.
    assert_eq!(
        hits("tests/l3.rs", "l3_wall_clock.rs"),
        vec![(6, Rule::L3), (10, Rule::L3)]
    );
}

#[test]
fn allow_directives_silence_their_line() {
    assert_eq!(hits("crates/bgpsim/src/allows.rs", "allows.rs"), vec![]);
    // The directive is rule-specific: the L1 allow does not cover L2.
    let source =
        "pub fn f(v: Option<u8>) -> u8 {\n    v.unwrap() // lint:allow(L1): wrong rule\n}\n";
    let found = scan_source("crates/core/src/x.rs", source);
    assert_eq!(found.len(), 1);
    assert_eq!((found[0].line, found[0].rule), (2, Rule::L2));
}

#[test]
fn explain_covers_every_rule() {
    for rule in lint::ALL_RULES {
        let text = rule.explain();
        assert!(
            text.starts_with(rule.id()),
            "{} explain starts with {:?}",
            rule.id(),
            &text[..20.min(text.len())]
        );
        assert!(text.contains(rule.name()), "{} names itself", rule.id());
    }
    // The retired id and junk do not parse.
    assert!(Rule::parse("L4").is_none());
    assert!(Rule::parse("L11").is_none());
    assert!(Rule::parse("bogus").is_none());
}

#[test]
fn manifest_scan_flags_direct_shim_paths() {
    // lint:allow(L6): test input for the manifest scanner, not an import
    let manifest = "[package]\nname = \"demo\"\n\n[dependencies]\nserde_json = { path = \"../../shims/serde_json\" }\n";
    let found = scan_manifest("crates/demo/Cargo.toml", manifest);
    assert_eq!(found.len(), 1);
    assert_eq!((found[0].line, found[0].rule), (5, Rule::L6));
    // TOML comments are stripped before matching.
    let commented =
        // lint:allow(L6): test input for the manifest scanner, not an import
        "[dependencies]\n# shims/serde_json would be wrong\nserde_json = { workspace = true }\n";
    assert!(scan_manifest("crates/demo/Cargo.toml", commented).is_empty());
}

/// Build a throwaway one-crate workspace for ratchet tests.
fn temp_workspace(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("drywells-lint-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let src = root.join("crates/demo/src");
    fs::create_dir_all(&src).expect("mkdir");
    fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/demo\"]\n",
    )
    .expect("workspace manifest");
    fs::write(
        root.join("crates/demo/Cargo.toml"),
        "[package]\nname = \"demo\"\n",
    )
    .expect("crate manifest");
    root
}

/// The `(path, line, rule)` triples of a report's new findings.
fn new_findings(report: &lint::LintReport) -> Vec<(String, usize, Rule)> {
    report
        .rows
        .iter()
        .filter(|r| r.is_new)
        .map(|r| (r.finding.path.clone(), r.finding.line, r.finding.rule))
        .collect()
}

#[test]
fn ratchet_round_trip() {
    let root = temp_workspace("ratchet");
    let lib = root.join("crates/demo/src/lib.rs");
    let baseline = root.join("lint-baseline.txt");
    fs::write(&lib, "pub fn shrink(x: usize) -> u16 {\n    x as u16\n}\n").expect("write lib");

    // A violation with no baseline fails the gate.
    let report = lint::run(&root, &baseline, false).expect("lint runs");
    assert!(!report.ok);
    assert_eq!(
        new_findings(&report),
        vec![("crates/demo/src/lib.rs".to_string(), 2, Rule::L1)]
    );

    // --update-baseline grandfathers it; the gate then passes.
    assert!(lint::run(&root, &baseline, true).expect("update").ok);
    assert!(lint::run(&root, &baseline, false).expect("recheck").ok);

    // The fingerprint is line-content based: shifting the finding down
    // a line does not churn the baseline.
    fs::write(
        &lib,
        "// a new leading comment\npub fn shrink(x: usize) -> u16 {\n    x as u16\n}\n",
    )
    .expect("shift");
    assert!(lint::run(&root, &baseline, false).expect("shifted").ok);

    // Fixing the violation leaves a stale entry, which also fails —
    // the ratchet forces the baseline to shrink.
    fs::write(
        &lib,
        "pub fn shrink(x: usize) -> u16 {\n    u16::try_from(x).unwrap_or(u16::MAX)\n}\n",
    )
    .expect("fix");
    let report = lint::run(&root, &baseline, false).expect("stale check");
    assert!(!report.ok);
    assert_eq!(report.stale_entries.len(), 1);

    // Re-updating strikes the stale entry and the gate is clean again.
    assert!(lint::run(&root, &baseline, true).expect("strike").ok);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn injected_violation_fails_a_clean_tree() {
    let root = temp_workspace("inject");
    let lib = root.join("crates/demo/src/lib.rs");
    let baseline = root.join("lint-baseline.txt");
    fs::write(&lib, "pub fn ok() {}\n").expect("write lib");
    assert!(lint::run(&root, &baseline, true).expect("seed baseline").ok);

    // Injecting one violation of each rule flips the gate to failing.
    // L7/L9 are scoped rules, so their injections land in an in-scope
    // crate path; everything else goes into the demo crate itself.
    let cycle = "use std::sync::Mutex;\n\
                 pub struct A { x: Mutex<u8>, y: Mutex<u8> }\n\
                 impl A {\n\
                 pub fn f(&self) { let g = self.x.lock().unwrap(); let h = self.y.lock().unwrap(); drop(h); drop(g); }\n\
                 pub fn b(&self) { let h = self.y.lock().unwrap(); let g = self.x.lock().unwrap(); drop(g); drop(h); }\n\
                 }\n";
    let hash_sink = "use std::collections::HashMap;\n\
                     pub fn dump(m: &HashMap<u32, u64>, out: &mut String) {\n\
                     for (k, v) in m.iter() { out.push_str(&format!(\"{k},{v}\\n\")); }\n\
                     }\n";
    let relaxed_publish = "pub struct C { pub d: u64, pub r: std::sync::atomic::AtomicBool }\n\
                           impl C {\n\
                           pub fn p(&mut self, v: u64) {\n\
                           self.d = v;\n\
                           self.r.store(true, std::sync::atomic::Ordering::Relaxed);\n\
                           }\n\
                           }\n";
    for (rule, path, snippet) in [
        (
            Rule::L1,
            "crates/demo/src/lib.rs",
            "pub fn v(x: usize) -> u8 { x as u8 }\n",
        ),
        (
            Rule::L2,
            "crates/demo/src/lib.rs",
            "pub fn v(o: Option<u8>) -> u8 { o.unwrap() }\n",
        ),
        (
            Rule::L3,
            "crates/demo/src/lib.rs",
            "pub fn v() { let _t = std::time::Instant::now(); }\n",
        ),
        (
            Rule::L5,
            "crates/demo/src/lib.rs",
            "pub fn v() { std::thread::spawn(|| {}).join().expect(\"join\"); }\n",
        ),
        (
            Rule::L6,
            "crates/demo/src/lib.rs",
            // lint:allow(L6): the injected violation under test, not an import
            "#[path = \"../shims/x.rs\"]\nmod v;\n",
        ),
        (Rule::L7, "crates/serve/src/lib.rs", cycle),
        (Rule::L8, "crates/demo/src/lib.rs", relaxed_publish),
        (Rule::L9, "crates/market/src/lib.rs", hash_sink),
        (
            Rule::L10,
            "crates/demo/src/lib.rs",
            "pub fn v(path: &str) { let _ = std::fs::read(path); }\n",
        ),
    ] {
        let target = root.join(path);
        fs::create_dir_all(target.parent().expect("parent")).expect("mkdir");
        let body = if path == "crates/demo/src/lib.rs" {
            format!("pub fn ok() {{}}\n{snippet}")
        } else {
            snippet.to_string()
        };
        fs::write(&target, body).expect("inject");
        let report = lint::run(&root, &baseline, false).expect("lint runs");
        assert!(!report.ok, "{rule:?} injection not caught");
        assert!(
            new_findings(&report).iter().any(|(_, _, r)| *r == rule),
            "{rule:?} missing from {:?}",
            new_findings(&report)
        );
        if path == "crates/demo/src/lib.rs" {
            fs::write(&target, "pub fn ok() {}\n").expect("restore");
        } else {
            fs::remove_file(&target).expect("remove injection");
        }
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn json_report_round_trips_through_the_shim_parser() {
    let root = temp_workspace("json");
    let lib = root.join("crates/demo/src/lib.rs");
    let baseline = root.join("lint-baseline.txt");
    fs::write(&lib, "pub fn shrink(x: usize) -> u16 {\n    x as u16\n}\n").expect("write lib");
    assert!(lint::run(&root, &baseline, true).expect("seed").ok);

    // One baselined L1 plus one new L2.
    fs::write(
        &lib,
        "pub fn shrink(x: usize) -> u16 {\n    x as u16\n}\npub fn v(o: Option<u8>) -> u8 { o.unwrap() }\n",
    )
    .expect("inject");
    let report = lint::run(&root, &baseline, false).expect("lint runs");
    assert!(!report.ok);

    let v = serde_json::parse(&report.to_json()).expect("lint JSON parses");
    assert_eq!(
        v.get("$schema").and_then(|s| s.as_str()),
        Some("drywells-lint-json-v1")
    );
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(false));
    let summary = v.get("summary").expect("summary block");
    assert_eq!(summary.get("baselined").and_then(|x| x.as_i64()), Some(1));
    assert_eq!(summary.get("new").and_then(|x| x.as_i64()), Some(1));
    assert_eq!(summary.get("stale").and_then(|x| x.as_i64()), Some(0));

    let results = v
        .get("results")
        .and_then(|r| r.as_array())
        .expect("results");
    assert_eq!(results.len(), 2);
    let baselined = &results[0];
    assert_eq!(baselined.get("ruleId").and_then(|r| r.as_str()), Some("L1"));
    assert_eq!(
        baselined.get("level").and_then(|l| l.as_str()),
        Some("note")
    );
    let loc = baselined
        .get("locations")
        .and_then(|l| l.as_array())
        .and_then(|a| a.first())
        .and_then(|l| l.get("physicalLocation"))
        .expect("physicalLocation");
    assert_eq!(
        loc.get("artifactLocation")
            .and_then(|a| a.get("uri"))
            .and_then(|u| u.as_str()),
        Some("crates/demo/src/lib.rs")
    );
    assert_eq!(
        loc.get("region")
            .and_then(|r| r.get("startLine"))
            .and_then(|l| l.as_i64()),
        Some(2)
    );
    let fp = baselined
        .get("partialFingerprints")
        .and_then(|p| p.get("excerptHash/v1"))
        .and_then(|f| f.as_str())
        .expect("fingerprint");
    assert!(fp.ends_with("#0"), "{fp}");

    let new_row = &results[1];
    assert_eq!(new_row.get("ruleId").and_then(|r| r.as_str()), Some("L2"));
    assert_eq!(new_row.get("level").and_then(|l| l.as_str()), Some("error"));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn workspace_lock_graph_covers_the_lock_scope_and_is_acyclic() {
    let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = lint::find_workspace_root(&manifest_dir).expect("workspace root");
    let files = lint::collect_sources(&root).expect("sources readable");
    let scoped: Vec<(&str, lint::lexer::Lexed, lint::ast::ItemTree)> = files
        .iter()
        .filter(|(p, _)| {
            p.ends_with(".rs")
                && (p.starts_with("crates/serve/")
                    || p.starts_with("crates/obs/")
                    || p == "crates/bgpsim/src/par.rs")
        })
        .map(|(p, text)| {
            let lx = lint::lexer::lex(text);
            let tree = lint::ast::parse(&lx);
            (p.as_str(), lx, tree)
        })
        .collect();
    assert!(
        scoped.len() >= 3,
        "lock scope shrank to {} files",
        scoped.len()
    );
    let refs: Vec<(&str, &lint::lexer::Lexed, &lint::ast::ItemTree)> =
        scoped.iter().map(|(p, lx, t)| (*p, lx, t)).collect();
    let g = lint::graph::build(&refs);
    // The real lock table is present…
    for node in [
        "Shared.queue",
        "ProfileCollector.state",
        "FlightRecorder.slots",
    ] {
        assert!(
            g.nodes.contains(node),
            "missing lock node {node}: {:?}",
            g.nodes
        );
    }
    // …and the serving/observability layers stay deadlock-free.
    let cycles = g.cycles();
    assert!(
        cycles.is_empty(),
        "lock-order cycle in the workspace: {}",
        lint::graph::LockGraph::witness(&cycles[0])
    );
}

#[test]
fn workspace_gate_is_clean() {
    let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = lint::find_workspace_root(&manifest_dir).expect("workspace root");
    let report = lint::run(&root, &root.join(lint::BASELINE_FILE), false).expect("lint runs");
    assert!(
        report.ok,
        "workspace lint gate failed:\n{}",
        report.render()
    );
}
