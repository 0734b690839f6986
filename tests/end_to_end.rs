//! End-to-end integration: run every experiment at quick scale and
//! check the combined report carries the paper's qualitative story.

use drywells::{run_all, StudyConfig};

#[test]
fn run_all_produces_complete_report() {
    let report = run_all(&StudyConfig::quick());
    // Every section header present.
    for section in [
        "Table 1: IPv4 exhaustion timeline",
        "Figure 1: price per IP",
        "Figure 2: market transfers",
        "Figure 3: inter-RIR transfers",
        "Figure 4: advertised leasing prices",
        "Figure 5: RPKI consistency rules",
        "Figure 6: BGP delegations",
        "S4: BGP vs RDAP coverage",
        "S6: amortization",
    ] {
        assert!(report.contains(section), "missing section {section:?}");
    }
    // Landmark facts from the paper surface in the report.
    assert!(report.contains("2019-11-25"), "RIPE run-out date");
    assert!(
        report.contains("no significant difference"),
        "regional price claim"
    );
    assert!(report.contains("consolidation phase from 2019"));
    assert!(report.contains("Heficed: $0.65 → $0.40"));
    assert!(report.contains("chosen rule (M=10, N=0)"));
    assert!(report.contains("extended (ours)"));
    assert!(report.contains("paper: ~1.85%"));
    assert!(report.contains("brokers report customer averages"));
}

#[test]
fn quick_study_is_deterministic() {
    let a = run_all(&StudyConfig::quick_seeded(7));
    let b = run_all(&StudyConfig::quick_seeded(7));
    assert_eq!(a, b, "same seed must reproduce the identical report");
}

#[test]
fn different_seeds_vary_data_but_not_conclusions() {
    for seed in [11u64, 12, 13] {
        let cfg = StudyConfig::quick_seeded(seed);
        let f1 = drywells::experiments::fig1::run(&cfg);
        assert!(
            f1.regional.iter().all(|c| c.p_value > 0.01),
            "seed {seed}: regional difference appeared (p values {:?})",
            f1.regional.iter().map(|c| c.p_value).collect::<Vec<_>>()
        );
        let f6 = drywells::experiments::fig6::run(&cfg);
        assert!(
            f6.extended_summary.count_diff_std < f6.baseline_summary.count_diff_std,
            "seed {seed}: extensions failed to reduce day-to-day variance"
        );
        assert!(f6.extended_eval.f1() > f6.baseline_eval.f1(), "seed {seed}");
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn quick_run_all_text_is_pinned() {
    // (seed, digest of `run_all`'s whole text). Any change to a runner,
    // to inference or to what the study shares between runners that
    // moves a byte of the report moves a digest.
    let pins: [(u64, u64); 3] = [
        (7, 0x559e_0aef_7405_94f4),
        (48, 0x8c57_e2e0_d481_03fc),
        (49, 0x4ef5_6800_2790_271c),
    ];
    let got: Vec<(u64, u64)> = pins
        .iter()
        .map(|&(seed, _)| {
            (
                seed,
                fnv1a(run_all(&StudyConfig::quick_seeded(seed)).as_bytes()),
            )
        })
        .collect();
    assert_eq!(got, pins, "run_all text changed (seed, digest)");
}
