//! §5 related work: prediction models over-estimate the market.
//!
//! Livadariu et al. predicted ≈ $30/IP for end-2015 — ~200 % above
//! the actual price. We reproduce the *mechanism*: an exponential
//! extrapolation fitted on the trending era badly overshoots the
//! consolidated market, while being roughly calibrated in-sample.

use crate::experiments::substrate;
use crate::report::{f, TextTable};
use crate::study::StudyConfig;
use market::prediction::{evaluate_extrapolation, ExponentialFit, PredictionScore};
use nettypes::date::date;

/// §5 output.
pub struct S5Prediction {
    /// The fitted growth model.
    pub fit: ExponentialFit,
    /// Out-of-sample score at the consolidated market.
    pub out_of_sample: PredictionScore,
    /// In-sample score during the trending era.
    pub in_sample: PredictionScore,
    /// Rendered report.
    pub rendered: String,
}

/// Run the prediction comparison.
pub fn run(config: &StudyConfig) -> Option<S5Prediction> {
    let txs = substrate(config).transactions();
    let (fit, out_of_sample) =
        evaluate_extrapolation(&txs, date("2019-01-01"), date("2020-06-01"))?;
    let (_, in_sample) = evaluate_extrapolation(&txs, date("2018-01-01"), date("2018-06-01"))?;

    let mut table = TextTable::new(&["evaluation", "predicted $/IP", "actual $/IP", "error"]);
    for (label, s) in [
        ("in-sample (2018-06)", &in_sample),
        ("out-of-sample (2020-06)", &out_of_sample),
    ] {
        table.row(vec![
            label.to_string(),
            f(s.predicted, 2),
            f(s.actual, 2),
            format!("{:+.1}%", s.relative_error * 100.0),
        ]);
    }
    let mut rendered = table.render();
    rendered.push_str(&format!(
        "\nfitted annual growth: ×{:.2}; extrapolation misses the consolidation,\n\
         reproducing the §5 finding that prior models over-estimated prices\n\
         (Livadariu et al.: ~200 % over for end-2015).\n",
        fit.annual_growth()
    ));
    Some(S5Prediction {
        fit,
        out_of_sample,
        in_sample,
        rendered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overestimates_out_of_sample_only() {
        let r = run(&StudyConfig::quick()).expect("data available");
        assert!(
            r.out_of_sample.relative_error > 0.15,
            "{:?}",
            r.out_of_sample
        );
        assert!(r.in_sample.relative_error.abs() < 0.15, "{:?}", r.in_sample);
        assert!(r.fit.annual_growth() > 1.05);
        assert!(r.rendered.contains("over-estimated"));
    }
}
