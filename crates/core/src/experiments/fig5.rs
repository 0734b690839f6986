//! Figure 5: validation of consistency-rule values on RPKI
//! delegations.

use crate::experiments::substrate;
use crate::report::{pct, TextTable};
use crate::study::StudyConfig;
use rpki::consistency::{ConsistencyReport, ConsistencySeries};

/// Figure 5 output.
pub struct Fig5 {
    /// One curve per N (allowed missing days).
    pub curves: Vec<ConsistencyReport>,
    /// The paper's chosen rule's fail rate: (M = 10, N = 0).
    pub chosen_rule_fail_rate: f64,
    /// Rendered report.
    pub rendered: String,
}

/// The M grid (days apart) and N grid (allowed missing days) of the
/// figure.
pub fn grids(scale_days: i64) -> (Vec<usize>, Vec<usize>) {
    let max_m = (scale_days as usize).saturating_sub(2).min(100);
    let ms: Vec<usize> = [2usize, 5, 10, 20, 30, 50, 70, 90, 100]
        .into_iter()
        .filter(|&m| m <= max_m)
        .collect();
    (ms, vec![0, 1, 2, 3])
}

/// Regenerate Figure 5.
pub fn run(config: &StudyConfig) -> Fig5 {
    let substrate = substrate(config);
    let series = ConsistencySeries::new(&substrate.rpki().days);
    let (ms, ns) = grids(substrate.world().span.num_days());
    let curves = series.curves(&ms, &ns);
    let chosen = series.evaluate(10, 0);

    let mut header: Vec<String> = vec!["M (days)".to_string()];
    header.extend(ns.iter().map(|n| format!("N={n}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = TextTable::new(&header_refs);
    for (mi, &m) in ms.iter().enumerate() {
        let mut row = vec![m.to_string()];
        for c in &curves {
            row.push(pct(c.points[mi].1));
        }
        table.row(row);
    }
    let mut rendered = table.render();
    rendered.push_str(&format!(
        "\nchosen rule (M=10, N=0): fail rate {} over {} premises\n",
        pct(chosen.fail_rate()),
        chosen.premises
    ));
    Fig5 {
        curves,
        chosen_rule_fail_rate: chosen.fail_rate(),
        rendered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_appendix_a_claims() {
        let r = run(&StudyConfig::quick());
        // The chosen rule's fail rate is low (the paper reports ~5 %
        // at full scale; the quick world's ~1k premises put the
        // estimate within a few points of that).
        assert!(
            r.chosen_rule_fail_rate < 0.10,
            "(10, 0) fail rate {}",
            r.chosen_rule_fail_rate
        );
        // The fail rate never reaches 30 %, even at large M.
        for c in &r.curves {
            for (m, rate) in &c.points {
                assert!(
                    *rate < 0.30,
                    "fail rate {rate} at M={m}, N={} exceeds 30 %",
                    c.n
                );
            }
        }
        // Monotone: larger N never fails more at equal M.
        for w in r.curves.windows(2) {
            for (a, b) in w[0].points.iter().zip(&w[1].points) {
                assert!(b.1 <= a.1 + 1e-12);
            }
        }
        assert!(r.rendered.contains("chosen rule"));
    }
}
