//! Figure 6 metrics: daily delegation counts, delegated address
//! volume, size distributions, and baseline-vs-extended comparisons.

use crate::base::Delegation;
use crate::pipeline::DailyDelegations;
use nettypes::date::Date;
use nettypes::set::PrefixSet;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One day's worth of Figure 6 numbers.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DailyMetrics {
    /// The day.
    pub date: Date,
    /// Number of delegations.
    pub delegations: usize,
    /// Unique delegated addresses.
    pub delegated_addresses: u64,
    /// Fraction of delegations that are /24s.
    pub slash24_share: f64,
    /// Fraction of delegations that are /20s.
    pub slash20_share: f64,
}

/// Compute the per-day series.
pub fn daily_metrics(result: &DailyDelegations) -> Vec<DailyMetrics> {
    result
        .days
        .iter()
        .enumerate()
        .map(|(i, delegs)| {
            let date = result.start + i as i64;
            let set: PrefixSet = delegs.iter().map(|d| d.prefix).collect();
            let n = delegs.len();
            let share = |len: u8| {
                if n == 0 {
                    0.0
                } else {
                    delegs.iter().filter(|d| d.prefix.len() == len).count() as f64 / n as f64
                }
            };
            DailyMetrics {
                date,
                delegations: n,
                delegated_addresses: set.num_addresses(),
                slash24_share: share(24),
                slash20_share: share(20),
            }
        })
        .collect()
}

/// Summary statistics over a metric series.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SeriesSummary {
    /// Mean daily delegation count.
    pub mean_delegations: f64,
    /// Standard deviation of the daily delegation count.
    pub count_std: f64,
    /// Standard deviation of the day-over-day count differences — the
    /// high-frequency "jumpiness" Figure 6 shows the extensions
    /// eliminating (insensitive to the slow market-growth trend).
    pub count_diff_std: f64,
    /// Coefficient of variation of the daily count (σ/μ).
    pub count_cv: f64,
    /// Relative growth of the delegation count, first→last 30-day
    /// means.
    pub growth: f64,
    /// Mean delegated addresses.
    pub mean_addresses: f64,
    /// Relative growth of delegated addresses.
    pub address_growth: f64,
    /// /24 share at the start / end (30-day means).
    pub slash24_share_start: f64,
    /// /24 share at the end.
    pub slash24_share_end: f64,
    /// /20 share at the start.
    pub slash20_share_start: f64,
    /// /20 share at the end.
    pub slash20_share_end: f64,
}

fn mean(v: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = v.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Summarize a metric series (window = first/last `edge_days`).
pub fn summarize(metrics: &[DailyMetrics], edge_days: usize) -> SeriesSummary {
    assert!(!metrics.is_empty(), "empty metric series");
    let e = edge_days.min(metrics.len() / 2).max(1);
    let head = &metrics[..e];
    let tail = &metrics[metrics.len() - e..];

    let counts: Vec<f64> = metrics.iter().map(|m| m.delegations as f64).collect();
    let m = mean(counts.iter().copied());
    let var = counts.iter().map(|c| (c - m).powi(2)).sum::<f64>() / counts.len() as f64;
    let std = var.sqrt();
    let cv = if m > 0.0 { std / m } else { 0.0 };
    let diffs: Vec<f64> = counts.windows(2).map(|w| w[1] - w[0]).collect();
    let diff_std = if diffs.is_empty() {
        0.0
    } else {
        let dm = diffs.iter().sum::<f64>() / diffs.len() as f64;
        (diffs.iter().map(|d| (d - dm).powi(2)).sum::<f64>() / diffs.len() as f64).sqrt()
    };

    let head_count = mean(head.iter().map(|x| x.delegations as f64));
    let tail_count = mean(tail.iter().map(|x| x.delegations as f64));
    let head_addr = mean(head.iter().map(|x| x.delegated_addresses as f64));
    let tail_addr = mean(tail.iter().map(|x| x.delegated_addresses as f64));

    SeriesSummary {
        mean_delegations: m,
        count_std: std,
        count_diff_std: diff_std,
        count_cv: cv,
        growth: if head_count > 0.0 {
            tail_count / head_count - 1.0
        } else {
            0.0
        },
        mean_addresses: mean(metrics.iter().map(|x| x.delegated_addresses as f64)),
        address_growth: if head_addr > 0.0 {
            tail_addr / head_addr - 1.0
        } else {
            0.0
        },
        slash24_share_start: mean(head.iter().map(|x| x.slash24_share)),
        slash24_share_end: mean(tail.iter().map(|x| x.slash24_share)),
        slash20_share_start: mean(head.iter().map(|x| x.slash20_share)),
        slash20_share_end: mean(tail.iter().map(|x| x.slash20_share)),
    }
}

/// Distribution of delegation prefix lengths over a whole result
/// (pooled across days, counting each delegation key once per day as
/// the paper's daily series does).
pub fn length_distribution(result: &DailyDelegations) -> BTreeMap<u8, u64> {
    let mut out: BTreeMap<u8, u64> = BTreeMap::new();
    for day in &result.days {
        for d in day {
            *out.entry(d.prefix.len()).or_default() += 1;
        }
    }
    out
}

/// The set of unique addresses ever delegated in a result — the "BGP
/// delegated IPs" side of the §4 coverage comparison.
pub fn all_delegated_addresses(result: &DailyDelegations) -> PrefixSet {
    result
        .days
        .iter()
        .flatten()
        .map(|d: &Delegation| d.prefix)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettypes::asn::Asn;
    use nettypes::date::date;
    use nettypes::prefix::pfx;

    fn deleg(p: &str) -> Delegation {
        Delegation {
            prefix: pfx(p),
            parent: pfx("64.0.0.0/12"),
            delegator: Asn(1),
            delegatee: Asn(2),
        }
    }

    fn result(days: Vec<Vec<Delegation>>) -> DailyDelegations {
        DailyDelegations {
            start: date("2018-01-01"),
            days,
            fallback_days: vec![],
            missing_days: vec![],
            intra_org_removed: 0,
        }
    }

    #[test]
    fn per_day_numbers() {
        let r = result(vec![
            vec![deleg("64.0.1.0/24"), deleg("64.0.16.0/20")],
            vec![deleg("64.0.1.0/24")],
            vec![],
        ]);
        let m = daily_metrics(&r);
        assert_eq!(m.len(), 3);
        assert_eq!(m[0].delegations, 2);
        assert_eq!(m[0].delegated_addresses, 256 + 4096);
        assert!((m[0].slash24_share - 0.5).abs() < 1e-12);
        assert!((m[0].slash20_share - 0.5).abs() < 1e-12);
        assert_eq!(m[1].delegations, 1);
        assert_eq!(m[2].delegations, 0);
        assert_eq!(m[2].slash24_share, 0.0);
        assert_eq!(m[2].date, date("2018-01-03"));
    }

    #[test]
    fn overlapping_delegations_counted_once_in_addresses() {
        let r = result(vec![vec![deleg("64.0.1.0/24"), deleg("64.0.0.0/20")]]);
        let m = daily_metrics(&r);
        // /24 inside /20: only 4096 unique addresses.
        assert_eq!(m[0].delegated_addresses, 4096);
    }

    #[test]
    fn summary_growth_and_cv() {
        // 10 days at 100, 10 days at 107: ~7 % growth.
        let mut days = Vec::new();
        for i in 0..20 {
            let n = if i < 10 { 100 } else { 107 };
            days.push(
                (0..n)
                    .map(|j| deleg(&format!("64.{}.{}.0/24", j / 256, j % 256)))
                    .collect(),
            );
        }
        let r = result(days);
        let s = summarize(&daily_metrics(&r), 10);
        assert!((s.growth - 0.07).abs() < 0.001, "growth {}", s.growth);
        assert!(s.count_cv > 0.0 && s.count_cv < 0.1);
    }

    #[test]
    fn length_distribution_counts() {
        let r = result(vec![
            vec![deleg("64.0.1.0/24"), deleg("64.0.16.0/20")],
            vec![deleg("64.0.1.0/24")],
        ]);
        let dist = length_distribution(&r);
        assert_eq!(dist[&24], 2);
        assert_eq!(dist[&20], 1);
    }

    #[test]
    fn all_addresses_union() {
        let r = result(vec![
            vec![deleg("64.0.1.0/24")],
            vec![deleg("64.0.2.0/24")],
            vec![deleg("64.0.1.0/24")],
        ]);
        assert_eq!(all_delegated_addresses(&r).num_addresses(), 512);
    }

    #[test]
    #[should_panic(expected = "empty metric series")]
    fn summary_requires_data() {
        let _ = summarize(&[], 10);
    }
}
