//! Ground-truth recall/precision integration tests: the simulator
//! knows the true leases, so the inference pipeline can be held to
//! quantitative quality bands, and the paper's robustness claims can
//! be checked (e.g. the visibility threshold being uncritical between
//! 10 % and 90 %).

use delegation::config::InferenceConfig;
use delegation::eval::evaluate_against_truth;
use delegation::pipeline::{run_pipeline, PipelineInput};
use drywells::experiments::build_bgp_study;
use drywells::StudyConfig;

#[test]
fn extended_pipeline_quality_bands() {
    let study = build_bgp_study(&StudyConfig::quick());
    let result = run_pipeline(
        PipelineInput::Days(&study.days),
        study.world.span,
        &InferenceConfig::extended(),
        Some(&study.as2org),
    );
    let eval = evaluate_against_truth(&study.world, &result);
    assert!(
        eval.precision() > 0.9,
        "precision {:.3} below band",
        eval.precision()
    );
    assert!(
        eval.recall() > 0.7,
        "recall {:.3} below band",
        eval.recall()
    );
}

#[test]
fn visibility_threshold_is_uncritical_between_10_and_90_percent() {
    // §4 footnote 2: "As long as the monitor threshold is chosen
    // between 10% and 90% the difference in inferred delegations is
    // negligible."
    let study = build_bgp_study(&StudyConfig::quick());
    let mut totals = Vec::new();
    for threshold in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let cfg = InferenceConfig {
            visibility_threshold: threshold,
            ..InferenceConfig::baseline()
        };
        let result = run_pipeline(
            PipelineInput::Days(&study.days),
            study.world.span,
            &cfg,
            None,
        );
        let total: usize = result.days.iter().map(Vec::len).sum();
        totals.push((threshold, total));
    }
    let max = totals.iter().map(|&(_, t)| t).max().unwrap() as f64;
    let min = totals.iter().map(|&(_, t)| t).min().unwrap() as f64;
    assert!(
        (max - min) / max < 0.10,
        "threshold sensitivity too high: {totals:?}"
    );
}

#[test]
fn each_extension_helps_on_its_axis() {
    let study = build_bgp_study(&StudyConfig::quick());
    let span = study.world.span;
    let run = |cfg: &InferenceConfig| {
        let as2org = cfg.filter_intra_org.then_some(&study.as2org);
        let result = run_pipeline(PipelineInput::Days(&study.days), span, cfg, as2org);
        evaluate_against_truth(&study.world, &result)
    };
    let base = run(&InferenceConfig::baseline());
    let only_iv = run(&InferenceConfig {
        filter_intra_org: true,
        ..InferenceConfig::baseline()
    });
    let only_v = run(&InferenceConfig {
        consistency_fill_days: Some(10),
        ..InferenceConfig::baseline()
    });
    // (iv) removes intra-org false positives ⇒ precision strictly up,
    // recall unchanged.
    assert!(only_iv.precision() > base.precision());
    assert_eq!(only_iv.true_positives, base.true_positives);
    // (v) fills gaps ⇒ recall strictly up.
    assert!(only_v.recall() > base.recall());
}

#[test]
fn onoff_heavy_worlds_need_the_fill_rule() {
    // Crank the on-off fraction: the baseline recall collapses while
    // the fill rule recovers most of it.
    let mut config = StudyConfig::quick_seeded(99);
    config.world.bgp_visible_fraction = 0.25;
    config.world.onoff_fraction = 0.9;
    let study = build_bgp_study(&config);
    let span = study.world.span;
    let base = run_pipeline(
        PipelineInput::Days(&study.days),
        span,
        &InferenceConfig::baseline(),
        None,
    );
    let filled = run_pipeline(
        PipelineInput::Days(&study.days),
        span,
        &InferenceConfig {
            consistency_fill_days: Some(10),
            ..InferenceConfig::baseline()
        },
        None,
    );
    let eb = evaluate_against_truth(&study.world, &base);
    let ef = evaluate_against_truth(&study.world, &filled);
    assert!(
        ef.recall() - eb.recall() > 0.1,
        "fill rule gained only {:.3} recall ({:.3} → {:.3})",
        ef.recall() - eb.recall(),
        eb.recall(),
        ef.recall()
    );
}
