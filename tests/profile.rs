//! Integration: `repro profile all` shows the shared inference.
//!
//! The profile collector and the metrics registry are process-wide, so
//! this is the only test in its binary, and its seed is one no other
//! test builds a study for: every walk it counts is its own.

use drywells::profile::run_profiled;
use drywells::StudyConfig;

#[test]
fn profile_all_walks_each_distinct_inference_once() {
    let report = run_profiled("all", &StudyConfig::quick_seeded(61)).expect("all is known");
    // Tree lines start with box-drawing guides, then the span name.
    let spans = |name: &str| {
        report
            .lines()
            .map(|l| l.trim_start_matches(|c: char| "├└─│ ".contains(c)))
            .filter(|l| l.split_whitespace().next() == Some(name))
            .count()
    };
    // Fourteen pipeline runs, five walks: one per threshold of the
    // sensitivity sweep, all reading one reduction of the days. The
    // extended algorithm applies extension (iv) once to the walk at
    // the paper's threshold.
    assert_eq!(spans("reduce_days"), 1, "{report}");
    assert_eq!(spans("sweep_infer_days"), 5, "{report}");
    assert_eq!(spans("intra_org_filter"), 1, "{report}");
    assert!(
        report.contains("inference walks: 5 computed, 9 shared"),
        "{report}"
    );
    // One WHOIS snapshot and one RDAP extraction serve s4 and s7.
    assert_eq!(spans("whois_db_build"), 1, "{report}");
    assert_eq!(spans("rdap_extract"), 1, "{report}");
    // Twelve scores, ten results: fig6's two are the sensitivity
    // sweeps' 0.5 threshold and 10-day window, scored once.
    assert_eq!(spans("truth_eval"), 10, "{report}");
    for stage in ["fig6_baseline", "fig6_extended", "consistency_fill"] {
        assert!(spans(stage) > 0, "missing {stage} in:\n{report}");
    }
    // Every input is built once: one world (the study's, which Figure
    // 5 and the RPKI series read too), one registry history for
    // Figures 2 and 3, one RPKI series for Figure 5 and §7, and one
    // transaction set for Figure 1 and §5.
    for input in [
        "world_generate",
        "registry_simulate",
        "rpki_snapshots",
        "market_transactions",
    ] {
        assert_eq!(spans(input), 1, "{input} in:\n{report}");
    }
    // The extended preset's fill, kept for fig6, §4, §7 and the
    // 10-day window, and one fill of the sweep's other windows.
    assert!(spans("consistency_fill") <= 2, "{report}");
}
