//! Per-experiment integration checks: each runner produces non-empty,
//! well-formed output carrying its experiment's key markers.

use drywells::experiments::*;
use drywells::StudyConfig;

#[test]
fn table1_markers() {
    let t = table1::run();
    assert!(t.rendered.contains("Down to last /8"));
    assert!(t.rendered.contains("Start of Recovery"));
    assert!(t.rendered.lines().count() >= 7);
}

#[test]
fn fig1_grid_covers_window() {
    let r = fig1::run(&StudyConfig::quick());
    let quarters: std::collections::BTreeSet<&str> =
        r.boxes.iter().map(|b| b.quarter_label.as_str()).collect();
    assert!(quarters.contains("2016Q1"));
    assert!(quarters.contains("2020Q2"));
    // 18 quarters × 3 regions × up to 7 size classes, at least half
    // the (quarter, region) cells populated.
    assert!(r.boxes.len() > 100, "only {} boxes", r.boxes.len());
    // Every box has coherent order statistics.
    for b in &r.boxes {
        assert!(b.stats.min <= b.stats.q1);
        assert!(b.stats.q1 <= b.stats.median);
        assert!(b.stats.median <= b.stats.q3);
        assert!(b.stats.q3 <= b.stats.max);
        assert!(b.stats.count > 0);
    }
}

#[test]
fn fig2_counts_nonnegative_and_dated() {
    let r = fig2::run(&StudyConfig::quick());
    for c in &r.counts {
        assert!(c.count > 0, "empty bins should not be emitted");
        assert!(c.addresses >= 256);
        assert!(c.quarter_label.len() == 6, "label {}", c.quarter_label);
    }
}

/// The substrate cache keys on every config a runner's inputs are
/// built from: configs that differ only in the registry or the RPKI
/// seed get their own history or series, not a shared one.
#[test]
fn substrate_cache_keys_on_the_registry_and_rpki_configs() {
    let a = StudyConfig::quick_seeded(71);
    let mut b = a.clone();
    b.registry.seed += 1;
    assert_ne!(fig2::run(&a).rendered, fig2::run(&b).rendered);
    assert_eq!(fig2::run(&a).rendered, fig2::run(&a.clone()).rendered);
    let mut c = a.clone();
    c.rpki.seed += 1;
    assert_ne!(fig5::run(&a).rendered, fig5::run(&c).rendered);
}

#[test]
fn fig3_flows_have_median_blocks() {
    let r = fig3::run(&StudyConfig::quick());
    for f in &r.flows {
        assert!(f.count > 0);
        assert!(f.median_block >= 256);
        assert!(f.addresses >= f.median_block);
        assert!(f.year >= 2012 && f.year <= 2020);
    }
}

#[test]
fn fig4_is_pure_paper_data() {
    let a = fig4::run();
    let b = fig4::run();
    assert_eq!(a.rendered, b.rendered, "Figure 4 is deterministic data");
    assert_eq!(a.catalog.len(), 21);
    assert!(a.sample_dates.len() >= 8);
}

#[test]
fn fig5_has_all_curves() {
    let r = fig5::run(&StudyConfig::quick());
    assert_eq!(r.curves.len(), 4, "N ∈ {{0,1,2,3}}");
    let ms: Vec<usize> = r.curves[0].points.iter().map(|(m, _)| *m).collect();
    assert!(ms.contains(&10), "the chosen rule's M must be on the grid");
    assert!(r.chosen_rule_fail_rate >= 0.0);
}

#[test]
fn fig6_metrics_per_day() {
    let cfg = StudyConfig::quick();
    let r = fig6::run(&cfg);
    assert_eq!(r.baseline_metrics.len() as i64, cfg.world.span.num_days());
    assert_eq!(r.baseline_metrics.len(), r.extended_metrics.len());
    for (b, e) in r.baseline_metrics.iter().zip(&r.extended_metrics) {
        assert_eq!(b.date, e.date);
        assert!(b.slash24_share <= 1.0 && e.slash24_share <= 1.0);
    }
}

#[test]
fn s4_report_counts_consistent() {
    let r = s4_coverage::run(&StudyConfig::quick());
    assert!(r.coverage.intersection <= r.coverage.bgp_addresses);
    assert!(r.coverage.intersection <= r.coverage.rdap_addresses);
    assert!(r.rdap_stats.delegations == r.coverage.rdap_delegations);
}

#[test]
fn s6_scenario_grid() {
    let r = s6_amortization::run();
    assert_eq!(r.scenarios.len(), 5);
    assert!(r.scenarios.iter().any(|s| s.months().is_none()));
}
