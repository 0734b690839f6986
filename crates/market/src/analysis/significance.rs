//! Regional price-difference testing.
//!
//! The paper reports "no statistical difference in pricing across the
//! regions". We implement the Mann-Whitney U test (two-sided, normal
//! approximation with tie correction) and apply it pairwise to the
//! per-region price samples, controlling for time and size by testing
//! within (quarter, size-class) strata and combining via the weighted
//! z-score (Stouffer) method.

use crate::pricing::SizeClass;
use crate::transactions::PricedTransaction;
use registry::rir::Rir;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The result of a Mann-Whitney U test.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MwuResult {
    /// The U statistic (for the first sample).
    pub u: f64,
    /// Standard-normal z approximation.
    pub z: f64,
    /// Two-sided p-value.
    pub p_value: f64,
    /// Sample sizes.
    pub n1: usize,
    /// Sample sizes.
    pub n2: usize,
}

/// Standard normal CDF via the Abramowitz-Stegun erf approximation
/// (max error ≈ 1.5e-7 — ample for significance testing).
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Two-sided Mann-Whitney U test with tie-corrected normal
/// approximation. Returns `None` when either sample is empty.
pub fn mann_whitney_u(a: &[f64], b: &[f64]) -> Option<MwuResult> {
    let (n1, n2) = (a.len(), b.len());
    if n1 == 0 || n2 == 0 {
        return None;
    }
    // Rank the pooled sample with average ranks for ties.
    let mut pooled: Vec<(f64, usize)> = a
        .iter()
        .map(|&v| (v, 0usize))
        .chain(b.iter().map(|&v| (v, 1usize)))
        .collect();
    pooled.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("no NaN"));
    let n = pooled.len();
    let mut ranks = vec![0.0f64; n];
    let mut tie_term = 0.0f64;
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && pooled[j + 1].0 == pooled[i].0 {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for r in ranks.iter_mut().take(j + 1).skip(i) {
            *r = avg_rank;
        }
        let t = (j - i + 1) as f64;
        tie_term += t * t * t - t;
        i = j + 1;
    }
    let r1: f64 = pooled
        .iter()
        .zip(&ranks)
        .filter(|((_, src), _)| *src == 0)
        .map(|(_, r)| *r)
        .sum();
    let u1 = r1 - (n1 * (n1 + 1)) as f64 / 2.0;
    let mean_u = (n1 * n2) as f64 / 2.0;
    let nf = n as f64;
    let var_u = (n1 * n2) as f64 / 12.0 * ((nf + 1.0) - tie_term / (nf * (nf - 1.0)));
    if var_u <= 0.0 {
        // All values tied: no evidence of difference.
        return Some(MwuResult {
            u: u1,
            z: 0.0,
            p_value: 1.0,
            n1,
            n2,
        });
    }
    // Continuity correction.
    let z = (u1 - mean_u - 0.5 * (u1 - mean_u).signum()) / var_u.sqrt();
    let p = 2.0 * (1.0 - normal_cdf(z.abs()));
    Some(MwuResult {
        u: u1,
        z,
        p_value: p.clamp(0.0, 1.0),
        n1,
        n2,
    })
}

/// A pairwise regional comparison combined across (quarter, size)
/// strata.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RegionalComparison {
    /// First region.
    pub a: Rir,
    /// Second region.
    pub b: Rir,
    /// Stouffer-combined z across strata.
    pub combined_z: f64,
    /// Two-sided p-value of the combined z.
    pub p_value: f64,
    /// Number of strata with data for both regions.
    pub strata: usize,
}

/// Test all pairs among APNIC/ARIN/RIPE for regional price
/// differences, stratified by (quarter, size class).
pub fn regional_difference_test(txs: &[PricedTransaction]) -> Vec<RegionalComparison> {
    // region → (quarter, size) → prices
    let mut strata: BTreeMap<(i64, SizeClass), BTreeMap<Rir, Vec<f64>>> = BTreeMap::new();
    for t in txs {
        if !Rir::MARKET_RIRS.contains(&t.region) {
            continue;
        }
        strata
            .entry((t.date.quarter_index(), SizeClass::from_len(t.prefix_len)))
            .or_default()
            .entry(t.region)
            .or_default()
            .push(t.price_per_ip);
    }
    let pairs = [
        (Rir::Apnic, Rir::Arin),
        (Rir::Apnic, Rir::RipeNcc),
        (Rir::Arin, Rir::RipeNcc),
    ];
    pairs
        .iter()
        .map(|&(a, b)| {
            let mut weighted_z = 0.0f64;
            let mut weight_sq = 0.0f64;
            let mut n_strata = 0usize;
            for samples in strata.values() {
                let (Some(sa), Some(sb)) = (samples.get(&a), samples.get(&b)) else {
                    continue;
                };
                if sa.len() < 3 || sb.len() < 3 {
                    continue;
                }
                if let Some(r) = mann_whitney_u(sa, sb) {
                    let w = ((sa.len() + sb.len()) as f64).sqrt();
                    weighted_z += w * r.z;
                    weight_sq += w * w;
                    n_strata += 1;
                }
            }
            let combined_z = if weight_sq > 0.0 {
                weighted_z / weight_sq.sqrt()
            } else {
                0.0
            };
            let p_value = 2.0 * (1.0 - normal_cdf(combined_z.abs()));
            RegionalComparison {
                a,
                b,
                combined_z,
                p_value: p_value.clamp(0.0, 1.0),
                strata: n_strata,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transactions::{generate_transactions, TransactionConfig};

    #[test]
    fn cdf_sanity() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!(normal_cdf(6.0) > 0.999_999);
    }

    #[test]
    fn mwu_detects_shift() {
        let a: Vec<f64> = (0..60).map(|i| 10.0 + (i % 7) as f64 * 0.1).collect();
        let b: Vec<f64> = (0..60).map(|i| 14.0 + (i % 7) as f64 * 0.1).collect();
        let r = mann_whitney_u(&a, &b).unwrap();
        assert!(r.p_value < 0.001, "p = {}", r.p_value);
    }

    #[test]
    fn mwu_accepts_identical_distributions() {
        let a: Vec<f64> = (0..100)
            .map(|i| (i as f64 * 0.37).sin() * 3.0 + 20.0)
            .collect();
        let b: Vec<f64> = (0..100)
            .map(|i| ((i + 50) as f64 * 0.37).sin() * 3.0 + 20.0)
            .collect();
        let r = mann_whitney_u(&a, &b).unwrap();
        assert!(r.p_value > 0.05, "p = {}", r.p_value);
    }

    #[test]
    fn mwu_handles_ties_and_empties() {
        assert!(mann_whitney_u(&[], &[1.0]).is_none());
        assert!(mann_whitney_u(&[1.0], &[]).is_none());
        let all_tied = mann_whitney_u(&[5.0; 10], &[5.0; 10]).unwrap();
        assert_eq!(all_tied.p_value, 1.0);
    }

    #[test]
    fn mwu_symmetry() {
        let a = [1.0, 3.0, 5.0, 7.0, 9.0, 11.0];
        let b = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0];
        let r1 = mann_whitney_u(&a, &b).unwrap();
        let r2 = mann_whitney_u(&b, &a).unwrap();
        assert!((r1.p_value - r2.p_value).abs() < 1e-9);
        assert!((r1.z + r2.z).abs() < 1e-9);
    }

    #[test]
    fn no_regional_difference_in_generated_market() {
        // The paper's key negative result: region does not move prices.
        let txs = generate_transactions(&TransactionConfig::default());
        for cmp in regional_difference_test(&txs) {
            assert!(cmp.strata > 10, "{:?}-{:?}: too few strata", cmp.a, cmp.b);
            assert!(
                cmp.p_value > 0.05,
                "{:?} vs {:?}: spurious regional difference (p = {:.4}, z = {:.2})",
                cmp.a,
                cmp.b,
                cmp.p_value,
                cmp.combined_z
            );
        }
    }

    #[test]
    fn regional_difference_detected_when_injected() {
        // Sanity: the test *can* reject. Inflate ARIN prices by 30 %.
        let mut txs = generate_transactions(&TransactionConfig::default());
        for t in txs.iter_mut() {
            if t.region == Rir::Arin {
                t.price_per_ip *= 1.3;
            }
        }
        let cmps = regional_difference_test(&txs);
        let arin_ripe = cmps
            .iter()
            .find(|c| c.a == Rir::Arin && c.b == Rir::RipeNcc)
            .unwrap();
        assert!(
            arin_ripe.p_value < 0.01,
            "expected detection, p = {}",
            arin_ripe.p_value
        );
    }
}
