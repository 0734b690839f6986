//! Figure 2: number of market transfers per region over time.

use crate::experiments::substrate;
use crate::report::TextTable;
use crate::study::StudyConfig;
use registry::policy::AllocationPolicy;
use registry::simulate::RegistryHistory;
use registry::stats::{market_start_dates, quarterly_counts, QuarterlyCount};
use std::sync::Arc;

/// Figure 2 output.
pub struct Fig2 {
    /// The simulated registry history, shared with Figure 3.
    pub history: Arc<RegistryHistory>,
    /// Per-quarter, per-region transfer counts (M&A-filtered, as the
    /// paper's preprocessing does where labels allow).
    pub counts: Vec<QuarterlyCount>,
    /// Rendered report.
    pub rendered: String,
}

/// Regenerate Figure 2.
pub fn run(config: &StudyConfig) -> Fig2 {
    let history = substrate(config).registry();
    // The analysis sees the *published* feeds and filters labelled M&A.
    let published = history.log.published().without_labelled_mna();
    let counts = quarterly_counts(&published);

    let mut table = TextTable::new(&["quarter", "region", "transfers", "addresses"]);
    for c in &counts {
        table.row(vec![
            c.quarter_label.clone(),
            c.rir.name().to_string(),
            c.count.to_string(),
            c.addresses.to_string(),
        ]);
    }
    let mut rendered = table.render();
    rendered.push('\n');
    for (rir, start) in market_start_dates(&published) {
        let policy = AllocationPolicy::for_rir(rir);
        rendered.push_str(&format!(
            "{}: first transfer {} (last /8 on {})\n",
            rir.name(),
            start,
            policy.last_slash8
        ));
    }
    Fig2 {
        history,
        counts,
        rendered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use registry::rir::Rir;

    #[test]
    fn reproduces_figure2_shape() {
        let r = run(&StudyConfig::quick());
        assert!(!r.counts.is_empty());
        // Markets start at (or shortly after) the last-/8 dates.
        let starts = market_start_dates(&r.history.log);
        for rir in [Rir::Apnic, Rir::Arin, Rir::RipeNcc] {
            let policy = AllocationPolicy::for_rir(rir);
            assert!(starts[&rir] >= policy.last_slash8);
        }
        // AFRINIC/LACNIC negligible.
        let total: usize = r.counts.iter().map(|c| c.count).sum();
        let marginal: usize = r
            .counts
            .iter()
            .filter(|c| matches!(c.rir, Rir::Afrinic | Rir::Lacnic))
            .map(|c| c.count)
            .sum();
        assert!((marginal as f64) < 0.03 * total as f64);
        assert!(r.rendered.contains("first transfer"));
    }
}
