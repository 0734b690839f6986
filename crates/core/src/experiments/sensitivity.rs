//! Sensitivity studies behind the paper's robustness claims.
//!
//! * Footnote 2: "As long as the monitor threshold is chosen between
//!   10 % and 90 % the difference in inferred delegations is
//!   negligible" — the threshold sweep quantifies that.
//! * Appendix A picks (M = 10, N = 0) for extension (v); the
//!   fill-window sweep shows how recall and precision move as the
//!   window grows (larger windows fill more gaps but risk bridging
//!   real terminations).

use crate::experiments::{build_bgp_study_cached, BgpStudy};
use crate::report::{f, pct, TextTable};
use crate::study::StudyConfig;
use delegation::config::InferenceConfig;
use delegation::eval::TruthEvaluation;
use serde::{Deserialize, Serialize};

/// One sweep point.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The swept parameter's value.
    pub value: f64,
    /// Total inferred delegation-days.
    pub total_delegations: usize,
    /// Ground-truth scores.
    pub eval: TruthEvaluation,
}

/// Sensitivity output.
pub struct Sensitivity {
    /// Visibility-threshold sweep (fractions of the monitor fleet).
    pub threshold_sweep: Vec<SweepPoint>,
    /// Consistency-fill window sweep (days).
    pub fill_sweep: Vec<SweepPoint>,
    /// Max relative spread of totals across the 10–90 % thresholds.
    pub threshold_spread: f64,
    /// Rendered report.
    pub rendered: String,
}

/// Run both sweeps on a shared study.
pub fn run_with_study(study: &BgpStudy) -> Sensitivity {
    let mut threshold_sweep = Vec::new();
    for threshold in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let cfg = InferenceConfig {
            visibility_threshold: threshold,
            ..InferenceConfig::baseline()
        };
        let result = study.delegations(&cfg);
        threshold_sweep.push(SweepPoint {
            value: threshold,
            total_delegations: result.days.iter().map(Vec::len).sum(),
            eval: study.evaluate(&result),
        });
    }
    let max = threshold_sweep
        .iter()
        .map(|p| p.total_delegations)
        .max()
        .unwrap_or(0) as f64;
    let min = threshold_sweep
        .iter()
        .map(|p| p.total_delegations)
        .min()
        .unwrap_or(0) as f64;
    let threshold_spread = if max > 0.0 { (max - min) / max } else { 0.0 };

    // Extension (iv) at every window; one sort serves the windows the
    // study does not keep.
    let filtered = InferenceConfig {
        filter_intra_org: true,
        ..InferenceConfig::baseline()
    };
    let mut fill_sweep = Vec::new();
    study.for_each_fill_window(&filtered, &[0, 3, 10, 30, 60], |window, result| {
        fill_sweep.push(SweepPoint {
            value: window as f64,
            total_delegations: result.days.iter().map(Vec::len).sum(),
            eval: study.evaluate(result),
        });
    });

    let mut rendered = String::from("visibility-threshold sweep (baseline algorithm):\n");
    let mut t = TextTable::new(&["threshold", "delegation-days", "precision", "recall"]);
    for p in &threshold_sweep {
        t.row(vec![
            f(p.value, 1),
            p.total_delegations.to_string(),
            pct(p.eval.precision()),
            pct(p.eval.recall()),
        ]);
    }
    rendered.push_str(&t.render());
    rendered.push_str(&format!(
        "spread across 10–90 %: {} (paper: negligible)\n\n",
        pct(threshold_spread)
    ));
    rendered.push_str("consistency-fill window sweep (with extension (iv)):\n");
    let mut t = TextTable::new(&["window (days)", "delegation-days", "precision", "recall"]);
    for p in &fill_sweep {
        t.row(vec![
            f(p.value, 0),
            p.total_delegations.to_string(),
            pct(p.eval.precision()),
            pct(p.eval.recall()),
        ]);
    }
    rendered.push_str(&t.render());

    Sensitivity {
        threshold_sweep,
        fill_sweep,
        threshold_spread,
        rendered,
    }
}

/// Run the sweeps from a config.
pub fn run(config: &StudyConfig) -> Sensitivity {
    let study = build_bgp_study_cached(config);
    run_with_study(&study)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_negligible_and_fill_monotone() {
        let r = run(&StudyConfig::quick());
        // Footnote 2.
        assert!(
            r.threshold_spread < 0.10,
            "threshold spread {}",
            r.threshold_spread
        );
        // Recall grows monotonically with the fill window…
        for w in r.fill_sweep.windows(2) {
            assert!(
                w[1].eval.recall() >= w[0].eval.recall() - 1e-9,
                "recall dropped from window {} to {}",
                w[0].value,
                w[1].value
            );
        }
        // …and the chosen window (10) recovers most of what 60 does.
        let at = |v: f64| {
            r.fill_sweep
                .iter()
                .find(|p| p.value == v)
                .expect("sweep point")
        };
        let gain_10 = at(10.0).eval.recall() - at(0.0).eval.recall();
        let gain_60 = at(60.0).eval.recall() - at(0.0).eval.recall();
        assert!(
            gain_10 > 0.6 * gain_60,
            "10-day window gains {gain_10:.3} vs 60-day {gain_60:.3}"
        );
        assert!(r.rendered.contains("visibility-threshold sweep"));
    }
}
