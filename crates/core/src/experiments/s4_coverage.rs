//! §4 headline: BGP-delegations vs RDAP-delegations coverage.
//!
//! Paper (RIPE region, June 2020): BGP-delegations cover ~1.85 % of
//! the RDAP-delegated IPs; RDAP-delegations cover ~65.7 % of the
//! BGP-delegated IPs. Neither source alone sees the leasing market.

use crate::experiments::{build_bgp_study_cached, BgpStudy};
use crate::report::pct;
use crate::study::StudyConfig;
use delegation::compare::{coverage_report, CoverageReport};
use delegation::config::InferenceConfig;
use rdap::pipeline::PipelineStats;

/// §4 comparison output.
pub struct S4Coverage {
    /// The two-way coverage numbers.
    pub coverage: CoverageReport,
    /// RDAP pipeline accounting (incl. the 91.4 % small-block skips).
    pub rdap_stats: PipelineStats,
    /// Ground-truth leasing-market size (active leases on the
    /// comparison date) — what neither source fully sees.
    pub true_active_leases: usize,
    /// Rendered report.
    pub rendered: String,
}

/// Run the comparison on a pre-built study.
pub fn run_with_study(study: &BgpStudy) -> S4Coverage {
    let span = study.world.span;
    let as_of = span.end;

    // RDAP side: snapshot + extraction on the final day. It runs
    // first so the BGP result below is not held while the WHOIS
    // snapshot is built.
    let (rdap_delegs, rdap_stats) = study.rdap_delegations();

    // BGP side: the extended pipeline on the same day.
    let bgp = study.delegations(&InferenceConfig::extended());
    let bgp_today = bgp.on(as_of).unwrap_or(&[]);

    let coverage = coverage_report(bgp_today, rdap_delegs);
    let true_active_leases = study.world.true_leases_on(as_of).len();

    let rendered = format!(
        "as of {as_of}:\n\
         BGP delegations:   {} prefixes, {} addresses\n\
         RDAP delegations:  {} objects,  {} addresses\n\
         BGP covers {} of RDAP-delegated IPs (paper: ~1.85%)\n\
         RDAP covers {} of BGP-delegated IPs (paper: ~65.7%)\n\
         small (<\u{2F}24) ASSIGNED PA objects skipped: {} of {} candidates ({})\n\
         ground truth: {} active leases — both sources underestimate\n",
        coverage.bgp_delegations,
        coverage.bgp_addresses,
        coverage.rdap_delegations,
        coverage.rdap_addresses,
        pct(coverage.bgp_coverage_of_rdap),
        pct(coverage.rdap_coverage_of_bgp),
        rdap_stats.skipped_small,
        rdap_stats.candidate_objects,
        pct(rdap_stats.skipped_small as f64 / rdap_stats.candidate_objects.max(1) as f64),
        true_active_leases,
    );
    S4Coverage {
        coverage,
        rdap_stats: rdap_stats.clone(),
        true_active_leases,
        rendered,
    }
}

/// Run the comparison from a config.
pub fn run(config: &StudyConfig) -> S4Coverage {
    let study = build_bgp_study_cached(config);
    run_with_study(&study)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_coverage_asymmetry() {
        let r = run(&StudyConfig::quick());
        // BGP sees a tiny fraction of the RDAP-delegated space…
        assert!(
            r.coverage.bgp_coverage_of_rdap < 0.08,
            "BGP coverage of RDAP {} should be tiny",
            r.coverage.bgp_coverage_of_rdap
        );
        assert!(r.coverage.bgp_coverage_of_rdap > 0.0);
        // …while RDAP covers a large share of BGP-delegated space.
        // (The quick world announces only ~25 leases, so this ratio is
        // noisy: the registered fraction is 0.657 ± ~0.10 at this n.)
        assert!(
            (0.35..=0.90).contains(&r.coverage.rdap_coverage_of_bgp),
            "RDAP coverage of BGP {}",
            r.coverage.rdap_coverage_of_bgp
        );
        // The ~91.4 % small-object skip shows up.
        let skip_frac = r.rdap_stats.skipped_small as f64 / r.rdap_stats.candidate_objects as f64;
        assert!(
            (0.85..=0.95).contains(&skip_frac),
            "skip fraction {skip_frac}"
        );
        // Neither source reaches the true market size.
        assert!(r.coverage.rdap_delegations < r.true_active_leases);
        assert!(r.coverage.bgp_delegations < r.coverage.rdap_delegations);
        assert!(r.rendered.contains("paper: ~1.85%"));
    }
}
