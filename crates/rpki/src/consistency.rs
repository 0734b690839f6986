//! The Appendix A consistency-rule evaluator (Figure 5).
//!
//! Rules have the form: *"If we observe a delegation on day X and on
//! day X + M, the delegation also exists for all but N days in
//! between."* A premise is valid when the delegation is present on
//! both endpoint days and no *conflicting* delegation (the same prefix
//! delegated to a different delegatee T') appears in between; the
//! conclusion is violated when more than N interior days lack the
//! delegation. The **fail rate** is the fraction of valid premises
//! with violated conclusions.
//!
//! The paper evaluates these rules on RPKI delegations
//! (2018-01-01 → 2020-06-01) and picks (M = 10, N = 0) — fail rate
//! below 5 % — as the gap-filling rule for BGP delegations
//! (extension (v)).

use crate::delegation::RpkiDelegation;
use nettypes::asn::Asn;
use nettypes::prefix::Prefix;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The outcome of evaluating one (M, N) rule over a series.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleOutcome {
    /// Window length M in days.
    pub m: usize,
    /// Allowed missing days N.
    pub n: usize,
    /// Number of valid premises.
    pub premises: u64,
    /// Premises whose conclusion was violated.
    pub failures: u64,
}

impl RuleOutcome {
    /// failures / premises (0.0 when no premise was valid).
    pub fn fail_rate(&self) -> f64 {
        if self.premises == 0 {
            0.0
        } else {
            self.failures as f64 / self.premises as f64
        }
    }
}

/// One Figure 5 curve: fail rate against M for a fixed N.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ConsistencyReport {
    /// The N of this curve.
    pub n: usize,
    /// `(M, fail_rate)` points.
    pub points: Vec<(usize, f64)>,
}

/// Per-key presence and conflict bitmaps over the series.
struct KeySeries {
    present: Vec<bool>,
    /// Prefix sums: number of present days in `[0, i)`.
    present_ps: Vec<u32>,
    /// Prefix sums: number of conflict days in `[0, i)`.
    conflict_ps: Vec<u32>,
}

impl KeySeries {
    fn finalize(present: Vec<bool>, conflict: Vec<bool>) -> KeySeries {
        let mut present_ps = Vec::with_capacity(present.len() + 1);
        let mut conflict_ps = Vec::with_capacity(conflict.len() + 1);
        present_ps.push(0);
        conflict_ps.push(0);
        let (mut p, mut c) = (0u32, 0u32);
        for i in 0..present.len() {
            p += u32::from(present[i]);
            c += u32::from(conflict[i]);
            present_ps.push(p);
            conflict_ps.push(c);
        }
        KeySeries {
            present,
            present_ps,
            conflict_ps,
        }
    }

    /// Present days in `[a, b)`.
    fn present_in(&self, a: usize, b: usize) -> u32 {
        self.present_ps[b] - self.present_ps[a]
    }

    /// Conflict days in `[a, b)`.
    fn conflicts_in(&self, a: usize, b: usize) -> u32 {
        self.conflict_ps[b] - self.conflict_ps[a]
    }
}

/// Build per-(prefix, delegatee) series from daily delegation sets.
fn build_series(days: &[Vec<RpkiDelegation>]) -> Vec<KeySeries> {
    let n_days = days.len();
    // (prefix, delegatee) → presence bitmap.
    let mut presence: BTreeMap<(Prefix, Asn), Vec<bool>> = BTreeMap::new();
    // prefix → per-day delegatee list (for conflicts).
    let mut by_prefix: BTreeMap<Prefix, Vec<Vec<Asn>>> = BTreeMap::new();
    for (di, day) in days.iter().enumerate() {
        for d in day {
            presence
                .entry((d.prefix, d.delegatee))
                .or_insert_with(|| vec![false; n_days])[di] = true;
            let slots = by_prefix
                .entry(d.prefix)
                .or_insert_with(|| vec![Vec::new(); n_days]);
            if !slots[di].contains(&d.delegatee) {
                slots[di].push(d.delegatee);
            }
        }
    }
    presence
        .into_iter()
        .map(|((prefix, delegatee), present)| {
            let slots = &by_prefix[&prefix];
            let conflict: Vec<bool> = (0..n_days)
                .map(|di| slots[di].iter().any(|&t| t != delegatee))
                .collect();
            KeySeries::finalize(present, conflict)
        })
        .collect()
}

/// The per-(prefix, delegatee) presence and conflict series of a run
/// of daily delegation sets, built once and evaluated for any number
/// of (M, N) rules.
pub struct ConsistencySeries {
    keys: Vec<KeySeries>,
}

impl ConsistencySeries {
    /// Build the series of `days`.
    pub fn new(days: &[Vec<RpkiDelegation>]) -> ConsistencySeries {
        ConsistencySeries {
            keys: build_series(days),
        }
    }

    /// Evaluate a single (M, N) rule.
    pub fn evaluate(&self, m: usize, n: usize) -> RuleOutcome {
        let mut out = RuleOutcome {
            m,
            n,
            premises: 0,
            failures: 0,
        };
        for ks in &self.keys {
            let n_days = ks.present.len();
            if m == 0 || m >= n_days {
                continue;
            }
            for x in 0..n_days - m {
                if !ks.present[x] || !ks.present[x + m] {
                    continue;
                }
                // Interior window (X, X+M) exclusive.
                let (a, b) = (x + 1, x + m);
                if ks.conflicts_in(a, b) > 0 {
                    continue; // premise invalid
                }
                out.premises += 1;
                let missing = (b - a) - ks.present_in(a, b) as usize;
                if missing > n {
                    out.failures += 1;
                }
            }
        }
        out
    }

    /// Evaluate a grid of rules, producing one Figure 5 curve per N.
    pub fn curves(&self, ms: &[usize], ns: &[usize]) -> Vec<ConsistencyReport> {
        ns.iter()
            .map(|&n| ConsistencyReport {
                n,
                points: ms
                    .iter()
                    .map(|&m| (m, self.evaluate(m, n).fail_rate()))
                    .collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettypes::prefix::pfx;

    fn deleg(p: &str, s: u32, t: u32) -> RpkiDelegation {
        RpkiDelegation {
            prefix: pfx(p),
            delegator: Asn(s),
            delegatee: Asn(t),
        }
    }

    /// Build a series where one delegation is present according to the
    /// given pattern ('1' present, '0' absent).
    fn pattern(p: &str) -> Vec<Vec<RpkiDelegation>> {
        p.chars()
            .map(|c| {
                if c == '1' {
                    vec![deleg("10.0.1.0/24", 1, 2)]
                } else {
                    vec![]
                }
            })
            .collect()
    }

    fn evaluate_rule(days: &[Vec<RpkiDelegation>], m: usize, n: usize) -> RuleOutcome {
        ConsistencySeries::new(days).evaluate(m, n)
    }

    #[test]
    fn continuous_presence_never_fails() {
        let days = pattern("1111111111");
        let o = evaluate_rule(&days, 5, 0);
        assert!(o.premises > 0);
        assert_eq!(o.failures, 0);
        assert_eq!(o.fail_rate(), 0.0);
    }

    #[test]
    fn single_gap_fails_n0_passes_n1() {
        let days = pattern("1101111111");
        // Window M=3 from day 0: endpoints 0 and 3 present, day 2 missing
        // is in (0,3)? Days 1,2 interior: day1 present, day2 absent → 1
        // missing → fails N=0, passes N=1.
        let o0 = evaluate_rule(&days, 3, 0);
        assert!(o0.failures > 0);
        let o1 = evaluate_rule(&days, 3, 1);
        assert_eq!(o1.failures, 0);
    }

    #[test]
    fn conflicting_delegation_invalidates_premise() {
        // Delegation (P, T=2) on days 0 and 4; on day 2 the prefix is
        // delegated to T'=3 instead: the premise is invalid, so no
        // failure is recorded even though days 1-3 are missing.
        let mut days = pattern("10001");
        days[2] = vec![deleg("10.0.1.0/24", 1, 3)];
        let o = evaluate_rule(&days, 4, 0);
        // The (T=2) key has no valid premise at M=4.
        // The (T=3) key has no M=4 pair.
        assert_eq!(o.premises, 0);
        assert_eq!(o.failures, 0);
    }

    #[test]
    fn gap_without_conflict_counts_as_failure() {
        let days = pattern("10001");
        let o = evaluate_rule(&days, 4, 0);
        assert_eq!(o.premises, 1);
        assert_eq!(o.failures, 1);
        assert_eq!(o.fail_rate(), 1.0);
        // N=3 tolerates the 3 missing interior days.
        let o3 = evaluate_rule(&days, 4, 3);
        assert_eq!(o3.failures, 0);
    }

    #[test]
    fn fail_rate_monotone_in_n() {
        // A noisy pattern.
        let days = pattern("110101101011011010110110101101");
        let mut last = f64::INFINITY;
        for n in 0..5 {
            let r = evaluate_rule(&days, 7, n).fail_rate();
            assert!(
                r <= last + 1e-12,
                "fail rate increased with N: {r} > {last}"
            );
            last = r;
        }
    }

    #[test]
    fn multiple_keys_aggregate() {
        let mut days = pattern("11111");
        for d in days.iter_mut() {
            d.push(deleg("10.0.2.0/24", 1, 5));
        }
        // Break the second delegation in the middle.
        days[2].retain(|x| x.delegatee != Asn(5));
        let o = evaluate_rule(&days, 4, 0);
        assert_eq!(o.premises, 2);
        assert_eq!(o.failures, 1);
        assert!((o.fail_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn outcome_does_not_depend_on_order_within_a_day() {
        let mut days = pattern("1101101111011");
        for (i, d) in days.iter_mut().enumerate() {
            d.push(deleg("10.0.2.0/24", 1, 5));
            if i % 3 == 0 {
                d.push(deleg("10.0.0.0/23", 7, 8));
            }
        }
        let reversed: Vec<_> = days
            .iter()
            .map(|d| d.iter().rev().copied().collect())
            .collect();
        for (m, n) in [(2, 0), (3, 1), (5, 0), (10, 2)] {
            assert_eq!(evaluate_rule(&days, m, n), evaluate_rule(&reversed, m, n));
        }
    }

    #[test]
    fn curves_shape() {
        let days = pattern("1110111011101110111011101110");
        let curves = ConsistencySeries::new(&days).curves(&[2, 4, 8, 12], &[0, 1, 2]);
        assert_eq!(curves.len(), 3);
        for c in &curves {
            assert_eq!(c.points.len(), 4);
            for (_, r) in &c.points {
                assert!((0.0..=1.0).contains(r));
            }
        }
        // Higher N is never worse at the same M.
        for i in 1..curves.len() {
            for (a, b) in curves[i - 1].points.iter().zip(&curves[i].points) {
                assert!(b.1 <= a.1 + 1e-12);
            }
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert_eq!(evaluate_rule(&[], 5, 0).premises, 0);
        let days = pattern("1");
        assert_eq!(evaluate_rule(&days, 1, 0).premises, 0);
        let days = pattern("11");
        let o = evaluate_rule(&days, 1, 0);
        // M=1 has an empty interior; premise valid, never fails.
        assert_eq!(o.premises, 1);
        assert_eq!(o.failures, 0);
        assert_eq!(evaluate_rule(&days, 0, 0).premises, 0);
    }
}
