//! Price-prediction models from the related work (§5) and their
//! evaluation against the (simulated) market path.
//!
//! Livadariu et al. (2017) fitted the few publicly disclosed
//! transactions and predicted ≈ $30/IP for the end of 2015 —
//! overshooting the actual price "by about 200 %". Edelman & Schwarz
//! (2015) proposed an equilibrium model whose trends oppose the
//! observed evolution. This module implements both styles —
//! exponential extrapolation and a constant-growth equilibrium path —
//! fits them on an early window, and scores them against the later
//! market, reproducing the paper's "previous work significantly
//! over-estimated the price development" finding.

use crate::transactions::PricedTransaction;
use nettypes::date::Date;
use serde::{Deserialize, Serialize};

/// A fitted log-linear (exponential-growth) price model:
/// `price(t) = exp(a + b · t)` with `t` in days since the fit origin.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExponentialFit {
    /// Intercept (log USD).
    pub a: f64,
    /// Daily log-growth rate.
    pub b: f64,
    /// Fit origin.
    pub origin: Date,
    /// Number of samples fitted.
    pub n: usize,
}

impl ExponentialFit {
    /// Least-squares fit of `log(price)` on days, or `None` with fewer
    /// than two distinct dates.
    pub fn fit(samples: impl IntoIterator<Item = (Date, f64)>) -> Option<ExponentialFit> {
        let pts: Vec<(Date, f64)> = samples.into_iter().filter(|(_, p)| *p > 0.0).collect();
        if pts.len() < 2 {
            return None;
        }
        let origin = pts.iter().map(|(d, _)| *d).min().expect("non-empty");
        let xs: Vec<f64> = pts.iter().map(|(d, _)| (*d - origin) as f64).collect();
        let ys: Vec<f64> = pts.iter().map(|(_, p)| p.ln()).collect();
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let sxx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
        if sxx == 0.0 {
            return None;
        }
        let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let b = sxy / sxx;
        let a = my - b * mx;
        Some(ExponentialFit {
            a,
            b,
            origin,
            n: pts.len(),
        })
    }

    /// The model's price prediction for a date.
    pub fn predict(&self, when: Date) -> f64 {
        (self.a + self.b * (when - self.origin) as f64).exp()
    }

    /// Implied annual growth factor.
    pub fn annual_growth(&self) -> f64 {
        (self.b * 365.25).exp()
    }
}

/// A prediction-model evaluation at a target date.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PredictionScore {
    /// The evaluation date.
    pub target: Date,
    /// Model prediction (USD/IP).
    pub predicted: f64,
    /// Actual market median at the target (USD/IP).
    pub actual: f64,
    /// `predicted / actual − 1`: positive = overestimate.
    pub relative_error: f64,
}

/// Median price of transactions within ±45 days of `target`.
pub fn market_median_near(txs: &[PricedTransaction], target: Date) -> Option<f64> {
    let mut v: Vec<f64> = txs
        .iter()
        .filter(|t| (t.date - target).abs() <= 45)
        .map(|t| t.price_per_ip)
        .collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    Some(v[v.len() / 2])
}

/// Fit an exponential model on the pre-`fit_until` transactions and
/// score it at `target` — the Livadariu-style experiment. Returns
/// `None` when either window lacks data.
pub fn evaluate_extrapolation(
    txs: &[PricedTransaction],
    fit_until: Date,
    target: Date,
) -> Option<(ExponentialFit, PredictionScore)> {
    let fit = ExponentialFit::fit(
        txs.iter()
            .filter(|t| t.date < fit_until)
            .map(|t| (t.date, t.price_per_ip)),
    )?;
    let actual = market_median_near(txs, target)?;
    let predicted = fit.predict(target);
    Some((
        fit,
        PredictionScore {
            target,
            predicted,
            actual,
            relative_error: predicted / actual - 1.0,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transactions::{generate_transactions, TransactionConfig};
    use nettypes::date::date;

    #[test]
    fn fit_recovers_exponential() {
        // price = 10 · exp(0.001 · t)
        let samples: Vec<(Date, f64)> = (0..200)
            .map(|i| {
                let d = date("2016-01-01") + i * 5;
                (d, 10.0 * (0.001 * (i * 5) as f64).exp())
            })
            .collect();
        let fit = ExponentialFit::fit(samples).unwrap();
        assert!((fit.b - 0.001).abs() < 1e-9, "b = {}", fit.b);
        assert!((fit.predict(date("2016-01-01")) - 10.0).abs() < 1e-6);
        assert!((fit.annual_growth() - (0.001f64 * 365.25).exp()).abs() < 1e-9);
    }

    #[test]
    fn degenerate_fits_rejected() {
        assert!(ExponentialFit::fit(Vec::<(Date, f64)>::new()).is_none());
        assert!(ExponentialFit::fit(vec![(date("2016-01-01"), 10.0)]).is_none());
        // Same-day samples: zero x-variance.
        assert!(
            ExponentialFit::fit(vec![(date("2016-01-01"), 10.0), (date("2016-01-01"), 12.0),])
                .is_none()
        );
        // Non-positive prices are filtered.
        assert!(
            ExponentialFit::fit(vec![(date("2016-01-01"), 0.0), (date("2016-06-01"), -3.0),])
                .is_none()
        );
    }

    #[test]
    fn extrapolation_overshoots_consolidated_market() {
        // The §5 finding: a growth model fitted on the pre-2019 ramp
        // overshoots the consolidated 2020 market.
        let txs = generate_transactions(&TransactionConfig::default());
        let (fit, score) =
            evaluate_extrapolation(&txs, date("2019-01-01"), date("2020-06-01")).unwrap();
        assert!(fit.b > 0.0, "the ramp must fit as growth");
        assert!(
            score.relative_error > 0.15,
            "expected a clear overestimate, got {:+.1} % (predicted {:.2} vs actual {:.2})",
            score.relative_error * 100.0,
            score.predicted,
            score.actual
        );
    }

    #[test]
    fn extrapolation_is_calibrated_in_sample() {
        // Within the trending era the same model is roughly unbiased —
        // the failure is specifically about missing the consolidation.
        let txs = generate_transactions(&TransactionConfig::default());
        let (_, score) =
            evaluate_extrapolation(&txs, date("2018-01-01"), date("2018-06-01")).unwrap();
        assert!(
            score.relative_error.abs() < 0.15,
            "in-sample error {:+.1} %",
            score.relative_error * 100.0
        );
    }

    #[test]
    fn median_window_boundaries() {
        let txs = generate_transactions(&TransactionConfig::default());
        assert!(market_median_near(&txs, date("2018-01-01")).is_some());
        assert!(market_median_near(&txs, date("2030-01-01")).is_none());
        assert!(market_median_near(&[], date("2018-01-01")).is_none());
    }
}
