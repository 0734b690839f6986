//! Figure 1: evolution of price per IP by prefix size and region.

use crate::experiments::substrate;
use crate::report::{f, TextTable};
use crate::study::StudyConfig;
use market::analysis::boxplot::{boxplot_grid, PriceBox};
use market::analysis::consolidation::{detect_consolidation_default, ConsolidationFinding};
use market::analysis::significance::{regional_difference_test, RegionalComparison};
use market::transactions::PricedTransaction;
use std::sync::Arc;

/// Figure 1 output.
pub struct Fig1 {
    /// The anonymized transaction data set, shared with §5.
    pub transactions: Arc<[PricedTransaction]>,
    /// The box-plot grid (quarter × region × size class).
    pub boxes: Vec<PriceBox>,
    /// Pairwise regional significance tests.
    pub regional: Vec<RegionalComparison>,
    /// Detected consolidation phase, if any.
    pub consolidation: Option<ConsolidationFinding>,
    /// Rendered report.
    pub rendered: String,
}

/// Regenerate Figure 1 (plus the §3 statistical claims attached to it).
pub fn run(config: &StudyConfig) -> Fig1 {
    let txs = substrate(config).transactions();
    let boxes = boxplot_grid(&txs);
    let regional = regional_difference_test(&txs);
    let consolidation = detect_consolidation_default(&txs);

    let mut table = TextTable::new(&["quarter", "region", "size", "n", "q1", "median", "q3"]);
    for b in &boxes {
        table.row(vec![
            b.quarter_label.clone(),
            b.region.name().to_string(),
            b.size.label().to_string(),
            b.stats.count.to_string(),
            f(b.stats.q1, 2),
            f(b.stats.median, 2),
            f(b.stats.q3, 2),
        ]);
    }
    let mut rendered = table.render();
    rendered.push('\n');
    for c in &regional {
        rendered.push_str(&format!(
            "regional test {} vs {}: p = {:.3} ({} strata) — {}\n",
            c.a,
            c.b,
            c.p_value,
            c.strata,
            if c.p_value > 0.05 {
                "no significant difference"
            } else {
                "SIGNIFICANT DIFFERENCE"
            }
        ));
    }
    if let Some(cons) = &consolidation {
        rendered.push_str(&format!(
            "consolidation phase from {} (median ${:.2}/IP)\n",
            cons.start_quarter_label, cons.consolidated_median
        ));
    }
    Fig1 {
        transactions: txs,
        boxes,
        regional,
        consolidation,
        rendered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_section3_claims() {
        let r = run(&StudyConfig::quick());
        assert!(!r.boxes.is_empty());
        // No regional difference.
        assert!(
            r.regional.iter().all(|c| c.p_value > 0.05),
            "{}",
            r.rendered
        );
        // Consolidation detected in 2019.
        let cons = r.consolidation.as_ref().expect("consolidation");
        assert!(cons.start_quarter_label.starts_with("2019"));
        assert!((20.0..=25.0).contains(&cons.consolidated_median));
        assert!(r.rendered.contains("no significant difference"));
        assert!(r.rendered.contains("consolidation phase from 2019"));
    }
}
