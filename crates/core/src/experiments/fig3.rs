//! Figure 3: inter-RIR transactions by origin and destination,
//! 2012–2020.

use crate::experiments::substrate;
use crate::report::TextTable;
use crate::study::StudyConfig;
use registry::rir::Rir;
use registry::stats::{inter_rir_flows, inter_rir_net_by_rir, InterRirFlow};
use std::collections::BTreeMap;

/// Figure 3 output.
pub struct Fig3 {
    /// Per-year, per-(origin, destination) flows.
    pub flows: Vec<InterRirFlow>,
    /// Net address movement per RIR over the whole window.
    pub net: BTreeMap<Rir, i64>,
    /// Rendered report.
    pub rendered: String,
}

/// Regenerate Figure 3.
pub fn run(config: &StudyConfig) -> Fig3 {
    let history = substrate(config).registry();
    let flows = inter_rir_flows(&history.log);
    let net = inter_rir_net_by_rir(&history.log);

    let mut table = TextTable::new(&[
        "year",
        "from",
        "to",
        "transfers",
        "addresses",
        "median block",
    ]);
    for f in &flows {
        table.row(vec![
            f.year.to_string(),
            f.from.name().to_string(),
            f.to.name().to_string(),
            f.count.to_string(),
            f.addresses.to_string(),
            f.median_block.to_string(),
        ]);
    }
    let mut rendered = table.render();
    rendered.push('\n');
    for (rir, delta) in &net {
        rendered.push_str(&format!(
            "{}: net {} addresses ({})\n",
            rir.name(),
            delta,
            if *delta >= 0 { "importer" } else { "exporter" }
        ));
    }
    Fig3 {
        flows,
        net,
        rendered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_figure3_shape() {
        let r = run(&StudyConfig::quick());
        assert!(!r.flows.is_empty());
        // ARIN is the big exporter; APNIC and RIPE are importers.
        assert!(r.net[&Rir::Arin] < 0, "ARIN should export: {:?}", r.net);
        assert!(r.net[&Rir::RipeNcc] > 0);
        assert!(r.net[&Rir::Apnic] > 0);
        // Counts grow over time.
        let per_year = |y: i64| -> usize {
            r.flows
                .iter()
                .filter(|f| f.year == y)
                .map(|f| f.count)
                .sum()
        };
        assert!(per_year(2019) > per_year(2015));
        // Transferred blocks shrink over time (median across flows).
        let med_block = |y: i64| -> f64 {
            let mut v: Vec<u64> = r
                .flows
                .iter()
                .filter(|f| f.year == y)
                .map(|f| f.median_block)
                .collect();
            if v.is_empty() {
                return 0.0;
            }
            v.sort_unstable();
            v[v.len() / 2] as f64
        };
        if med_block(2015) > 0.0 && med_block(2019) > 0.0 {
            assert!(med_block(2019) < med_block(2015));
        }
        // Only the big three participate.
        for f in &r.flows {
            assert!(Rir::MARKET_RIRS.contains(&f.from));
            assert!(Rir::MARKET_RIRS.contains(&f.to));
        }
        assert!(r.rendered.contains("exporter"));
    }
}
