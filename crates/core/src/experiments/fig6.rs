//! Figure 6: number of BGP delegations and delegated addresses,
//! baseline [Krenc-Feldmann] vs the paper's extended algorithm.

use crate::experiments::{build_bgp_study_cached, BgpStudy};
use crate::report::{f, pct, TextTable};
use crate::study::StudyConfig;
use delegation::config::InferenceConfig;
use delegation::eval::{evaluate_against_truth, TruthEvaluation};
use delegation::metrics::{daily_metrics, summarize, DailyMetrics, SeriesSummary};
use delegation::pipeline::{run_pipeline, DailyDelegations, PipelineInput};
use std::sync::Arc;

/// Figure 6 output.
pub struct Fig6 {
    /// Baseline per-day metric series.
    pub baseline_metrics: Vec<DailyMetrics>,
    /// Extended per-day metric series.
    pub extended_metrics: Vec<DailyMetrics>,
    /// Baseline summary.
    pub baseline_summary: SeriesSummary,
    /// Extended summary.
    pub extended_summary: SeriesSummary,
    /// Ground-truth scores for both configs.
    pub baseline_eval: TruthEvaluation,
    /// Ground-truth scores for the extended config.
    pub extended_eval: TruthEvaluation,
    /// The raw pipeline outputs (baseline, extended).
    pub results: (Arc<DailyDelegations>, Arc<DailyDelegations>),
    /// Rendered report.
    pub rendered: String,
}

/// Regenerate Figure 6 using a pre-built study (lets callers reuse the
/// world across experiments). Both results and their truth scores come
/// from the study's shared inference ([`BgpStudy::delegations`],
/// [`BgpStudy::evaluate`]).
pub fn run_with_study(study: &BgpStudy) -> Fig6 {
    let baseline = {
        let _sp = obs::span!("fig6_baseline");
        study.delegations(&InferenceConfig::baseline())
    };
    let extended = {
        let _sp = obs::span!("fig6_extended");
        study.delegations(&InferenceConfig::extended())
    };
    report(study, baseline, extended, |r| study.evaluate(r))
}

/// Regenerate Figure 6 with a caller-chosen pipeline input over the
/// study's span — the profiler feeds a freshly encoded MRT archive so
/// the faithful decode path shows up in the stage tree. The input is
/// walked once, by the baseline; the extended result applies
/// extensions (iv) and (v) to that walk, as [`run_pipeline`] would
/// after walking it again. `make_input` is called once. Nothing is
/// shared with the study's own inference.
pub fn run_with_inputs<'a>(study: &BgpStudy, make_input: impl Fn() -> PipelineInput<'a>) -> Fig6 {
    let span = study.world.span;
    let baseline = {
        let _sp = obs::span!("fig6_baseline");
        run_pipeline(make_input(), span, &InferenceConfig::baseline(), None)
    };
    let extended = {
        let _sp = obs::span!("fig6_extended");
        let filtered = baseline.without_intra_org(&study.as2org);
        match InferenceConfig::extended().consistency_fill_days {
            Some(max_gap) => filtered.filled(max_gap),
            None => filtered,
        }
    };
    report(study, Arc::new(baseline), Arc::new(extended), |r| {
        evaluate_against_truth(&study.world, r)
    })
}

/// Metrics, summaries, truth scores (by `evaluate`) and the table for
/// both results.
fn report(
    study: &BgpStudy,
    baseline: Arc<DailyDelegations>,
    extended: Arc<DailyDelegations>,
    evaluate: impl Fn(&Arc<DailyDelegations>) -> TruthEvaluation,
) -> Fig6 {
    let span = study.world.span;
    let _agg = obs::span!("study_aggregation");
    let baseline_metrics = daily_metrics(&baseline);
    let extended_metrics = daily_metrics(&extended);
    let edge = (span.num_days() / 8).clamp(7, 30) as usize;
    let baseline_summary = summarize(&baseline_metrics, edge);
    let extended_summary = summarize(&extended_metrics, edge);
    let baseline_eval = evaluate(&baseline);
    let extended_eval = evaluate(&extended);

    let mut table = TextTable::new(&[
        "algorithm",
        "mean delegations/day",
        "count std",
        "diff std",
        "growth",
        "mean delegated IPs",
        "/24 share end",
        "/20 share end",
        "precision",
        "recall",
    ]);
    for (label, s, e) in [
        ("baseline [48]", &baseline_summary, &baseline_eval),
        ("extended (ours)", &extended_summary, &extended_eval),
    ] {
        table.row(vec![
            label.to_string(),
            f(s.mean_delegations, 1),
            f(s.count_std, 2),
            f(s.count_diff_std, 2),
            pct(s.growth),
            f(s.mean_addresses, 0),
            pct(s.slash24_share_end),
            pct(s.slash20_share_end),
            pct(e.precision()),
            pct(e.recall()),
        ]);
    }
    let rendered = table.render();
    Fig6 {
        baseline_metrics,
        extended_metrics,
        baseline_summary,
        extended_summary,
        baseline_eval,
        extended_eval,
        results: (baseline, extended),
        rendered,
    }
}

/// Regenerate Figure 6 from a config.
pub fn run(config: &StudyConfig) -> Fig6 {
    let study = build_bgp_study_cached(config);
    run_with_study(&study)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_figure6_shape() {
        let r = run(&StudyConfig::quick());
        // Extensions reduce the daily count…
        assert!(
            r.extended_summary.mean_delegations < r.baseline_summary.mean_delegations,
            "baseline {} vs extended {}",
            r.baseline_summary.mean_delegations,
            r.extended_summary.mean_delegations
        );
        // …and eliminate the day-to-day jumpiness (the paper's
        // headline for the appendix figure). The first-difference std
        // isolates the high-frequency noise from the slow market
        // growth both series share.
        assert!(
            r.extended_summary.count_diff_std < 0.6 * r.baseline_summary.count_diff_std,
            "diff std: baseline {} vs extended {}",
            r.baseline_summary.count_diff_std,
            r.extended_summary.count_diff_std
        );
        // The extended algorithm scores strictly better against truth.
        assert!(r.extended_eval.f1() > r.baseline_eval.f1());
        assert!(r.rendered.contains("extended (ours)"));
    }
}
