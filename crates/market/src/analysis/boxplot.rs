//! Box-plot statistics for Figure 1: price per IP grouped by prefix
//! size, region, and three-month interval.

use crate::pricing::SizeClass;
use crate::transactions::PricedTransaction;
use registry::rir::Rir;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Five-number summary (plus count and mean).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BoxStats {
    /// Sample size.
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl BoxStats {
    /// Compute from an unsorted sample; `None` for an empty sample.
    pub fn compute(values: &[f64]) -> Option<BoxStats> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN prices"));
        Some(BoxStats {
            count: v.len(),
            min: v[0],
            q1: quantile_sorted(&v, 0.25),
            median: quantile_sorted(&v, 0.5),
            q3: quantile_sorted(&v, 0.75),
            max: v[v.len() - 1],
            mean: v.iter().sum::<f64>() / v.len() as f64,
        })
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Linear-interpolated quantile of a sorted sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// One box of Figure 1.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PriceBox {
    /// Quarter index since 1970Q1.
    pub quarter_index: i64,
    /// Quarter label, e.g. `2019Q2`.
    pub quarter_label: String,
    /// Region.
    pub region: Rir,
    /// Size class.
    pub size: SizeClass,
    /// The statistics.
    pub stats: BoxStats,
}

/// Build the full Figure 1 grid from a transaction set. AFRINIC and
/// LACNIC are excluded, as in the paper.
pub fn boxplot_grid(txs: &[PricedTransaction]) -> Vec<PriceBox> {
    let mut groups: BTreeMap<(i64, Rir, SizeClass), (Vec<f64>, String)> = BTreeMap::new();
    for t in txs {
        if !Rir::MARKET_RIRS.contains(&t.region) {
            continue;
        }
        let e = groups
            .entry((
                t.date.quarter_index(),
                t.region,
                SizeClass::from_len(t.prefix_len),
            ))
            .or_insert_with(|| (Vec::new(), t.date.quarter_label()));
        e.0.push(t.price_per_ip);
    }
    groups
        .into_iter()
        .filter_map(|((qi, region, size), (values, label))| {
            BoxStats::compute(&values).map(|stats| PriceBox {
                quarter_index: qi,
                quarter_label: label,
                region,
                size,
                stats,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transactions::{generate_transactions, TransactionConfig};
    use nettypes::date::date;

    #[test]
    fn quantiles_match_hand_computed() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
        assert_eq!(quantile_sorted(&v, 0.25), 1.75);
        let single = [7.0];
        assert_eq!(quantile_sorted(&single, 0.5), 7.0);
    }

    #[test]
    fn boxstats_basics() {
        assert!(BoxStats::compute(&[]).is_none());
        let s = BoxStats::compute(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.mean, 3.0);
        assert!(s.iqr() > 0.0);
    }

    #[test]
    fn grid_excludes_marginal_regions() {
        let txs = generate_transactions(&TransactionConfig::default());
        let grid = boxplot_grid(&txs);
        assert!(!grid.is_empty());
        assert!(grid.iter().all(|b| Rir::MARKET_RIRS.contains(&b.region)));
    }

    #[test]
    fn grid_shows_doubling() {
        let txs = generate_transactions(&TransactionConfig::default());
        let grid = boxplot_grid(&txs);
        let median_in = |label: &str| {
            let boxes: Vec<&PriceBox> = grid.iter().filter(|b| b.quarter_label == label).collect();
            let total: usize = boxes.iter().map(|b| b.stats.count).sum();
            let weighted: f64 = boxes
                .iter()
                .map(|b| b.stats.median * b.stats.count as f64)
                .sum();
            weighted / total as f64
        };
        let early = median_in("2016Q1");
        let late = median_in("2020Q1");
        let ratio = late / early;
        assert!((1.6..=2.4).contains(&ratio), "growth ratio {ratio:.2}");
    }

    #[test]
    fn grid_shows_small_block_premium() {
        let txs = generate_transactions(&TransactionConfig::default());
        let grid = boxplot_grid(&txs);
        // Aggregate 2019-2020 medians per size class.
        let median_of = |size: SizeClass| {
            let vals: Vec<f64> = grid
                .iter()
                .filter(|b| b.size == size && b.quarter_label.as_str() >= "2019Q1")
                .map(|b| b.stats.median)
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        assert!(median_of(SizeClass::Slash24) > median_of(SizeClass::Slash22));
        assert!(median_of(SizeClass::Slash23) > median_of(SizeClass::Slash16));
    }

    #[test]
    fn variance_collapses_in_consolidation() {
        let txs = generate_transactions(&TransactionConfig::default());
        let grid = boxplot_grid(&txs);
        let mean_iqr = |year_quarter: &str| {
            let v: Vec<f64> = grid
                .iter()
                .filter(|b| b.quarter_label == year_quarter && b.stats.count >= 5)
                .map(|b| b.stats.iqr() / b.stats.median)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let pre = mean_iqr("2018Q2");
        let post = mean_iqr("2020Q1");
        assert!(
            post < pre * 0.6,
            "relative IQR should collapse: pre {pre:.3} post {post:.3}"
        );
        let _ = date("2019-04-01"); // marker used by consolidation tests
    }
}
