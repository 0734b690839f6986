//! §7 future work: the combined BGP + RPKI + RDAP estimator.
//!
//! The paper closes by arguing that "future research efforts should
//! combine routing information, RPKI data, as well as the RDAP
//! databases to obtain a better picture of the leasing ecosystem".
//! With the simulator's ground truth we can run that experiment:
//! estimate the leasing market through each lens individually, then
//! through their union, and measure how much of the true market each
//! captures.

use crate::experiments::{build_bgp_study_cached, substrate, BgpStudy};
use crate::report::{pct, TextTable};
use crate::study::StudyConfig;
use delegation::combine::{market_coverage, CombinedEstimate, MarketCoverage};
use delegation::config::InferenceConfig;
use nettypes::set::PrefixSet;

/// §7 output.
pub struct S7Combined {
    /// Per-source and combined market coverage.
    pub rows: Vec<(String, MarketCoverage)>,
    /// The combined estimate with per-source attribution.
    pub estimate: CombinedEstimate,
    /// Addresses only a single source contributes ([bgp, rpki, rdap]).
    pub exclusive: [u64; 3],
    /// Rendered report.
    pub rendered: String,
}

/// Run the combined-estimator experiment on a pre-built study.
pub fn run_with_study(study: &BgpStudy, config: &StudyConfig) -> S7Combined {
    let span = study.world.span;
    let as_of = span.end;

    // BGP lens.
    let bgp = study.delegations(&InferenceConfig::extended());
    let bgp_today = bgp.on(as_of).unwrap_or(&[]);

    // RPKI lens: the substrate's daily RPKI delegations, which Figure
    // 5 reads too.
    let substrate = substrate(config);
    let rpki_today = substrate.rpki().on(as_of).unwrap_or(&[]);

    // RDAP lens.
    let (rdap_today, _) = study.rdap_delegations();

    // Individual and combined estimates.
    let estimate = CombinedEstimate::build(bgp_today, rpki_today, rdap_today);
    let bgp_set: PrefixSet = bgp_today.iter().map(|d| d.prefix).collect();
    let rpki_set: PrefixSet = rpki_today.iter().map(|d| d.prefix).collect();
    let rdap_set: PrefixSet = rdap_today.iter().flat_map(|d| d.child.to_cidrs()).collect();
    let combined_set = estimate.address_set();

    let rows: Vec<(String, MarketCoverage)> = [
        ("BGP only", &bgp_set),
        ("RPKI only", &rpki_set),
        ("RDAP only", &rdap_set),
        ("combined (§7)", &combined_set),
    ]
    .into_iter()
    .map(|(label, set)| (label.to_string(), market_coverage(&study.world, as_of, set)))
    .collect();
    let exclusive = estimate.exclusive_addresses();

    let mut table = TextTable::new(&[
        "estimator",
        "addresses",
        "market recall",
        "address precision",
    ]);
    for (label, c) in &rows {
        table.row(vec![
            label.clone(),
            c.estimated_addresses.to_string(),
            pct(c.market_recall),
            pct(c.address_precision),
        ]);
    }
    let mut rendered = table.render();
    rendered.push_str(&format!(
        "\nexclusive contributions: BGP {} addresses, RPKI {}, RDAP {}\n\
         blocks seen by ≥2 sources: {} of {}\n\
         even the combined estimate undercounts the true market ({} addresses):\n\
         unregistered, unannounced leases are invisible to all three lenses — the\n\
         paper's core argument for why the leasing market defies measurement.\n",
        exclusive[0],
        exclusive[1],
        exclusive[2],
        estimate.blocks_with_agreement(2),
        estimate.blocks.len(),
        rows[0].1.true_addresses,
    ));
    S7Combined {
        rows,
        estimate,
        exclusive,
        rendered,
    }
}

/// Run from a config.
pub fn run(config: &StudyConfig) -> S7Combined {
    let study = build_bgp_study_cached(config);
    run_with_study(&study, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combination_beats_every_single_source() {
        let r = run(&StudyConfig::quick());
        let get = |label: &str| {
            r.rows
                .iter()
                .find(|(l, _)| l.starts_with(label))
                .expect("row")
                .1
        };
        let combined = get("combined");
        for single in ["BGP only", "RPKI only", "RDAP only"] {
            assert!(
                combined.market_recall >= get(single).market_recall,
                "combined {:.3} < {single} {:.3}",
                combined.market_recall,
                get(single).market_recall
            );
        }
        // RDAP dominates but BGP still adds exclusive space (the
        // unregistered-but-announced leases).
        assert!(get("RDAP only").market_recall > get("BGP only").market_recall);
        assert!(r.exclusive[0] > 0, "BGP adds nothing exclusive");
        // And even combined, the market is undercounted.
        assert!(
            combined.market_recall < 1.0,
            "nothing should see the whole market"
        );
        // Precision stays high: the estimate is mostly real leases.
        assert!(
            combined.address_precision > 0.9,
            "{}",
            combined.address_precision
        );
        assert!(r.rendered.contains("combined (§7)"));
    }
}
