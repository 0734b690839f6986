//! # drywells
//!
//! A full reproduction of **"When Wells Run Dry: The 2020 IPv4 Address
//! Market"** (Prehn, Lichtblau, Feldmann — CoNEXT 2020) as a Rust
//! workspace: the paper's measurement pipelines plus synthetic
//! substrates for every data source the paper used (BGP collectors,
//! RIR registries, WHOIS/RDAP, RPKI, broker pricing, leasing-price
//! scrapes).
//!
//! This crate is the facade: a [`StudyConfig`] fixes the scale and
//! seeds, and one runner per paper artifact regenerates it:
//!
//! | Paper artifact | Runner |
//! |---|---|
//! | Table 1 (exhaustion timeline) | [`experiments::table1`] |
//! | Figure 1 (price per IP box plots) | [`experiments::fig1`] |
//! | Figure 2 (# market transfers) | [`experiments::fig2`] |
//! | Figure 3 (inter-RIR transactions) | [`experiments::fig3`] |
//! | Figure 4 (advertised leasing prices) | [`experiments::fig4`] |
//! | Figure 5 (RPKI consistency-rule fail rates) | [`experiments::fig5`] |
//! | Figure 6 (BGP delegations w/wo extensions) | [`experiments::fig6`] |
//! | §4 BGP-vs-RDAP coverage | [`experiments::s4_coverage`] |
//! | §5 prediction-model comparison | [`experiments::s5_prediction`] |
//! | §6 amortization times | [`experiments::s6_amortization`] |
//! | §6 behaviour by business model | [`experiments::s6_behavior`] |
//! | Footnote 2 / Appendix A sweeps | [`experiments::sensitivity`] |
//!
//! ```
//! use drywells::{StudyConfig, experiments};
//!
//! let cfg = StudyConfig::quick();
//! let t1 = experiments::table1::run();
//! assert!(t1.rendered.contains("RIPE NCC"));
//! let s6 = experiments::s6_amortization::run();
//! assert!(s6.rendered.contains("months"));
//! # let _ = cfg;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod csv;
pub mod experiments;
pub mod profile;
pub mod report;
pub mod study;
pub mod tracecheck;

pub use study::{StudyConfig, StudyScale};

/// Run every experiment at the given scale and concatenate the
/// reports — the programmatic equivalent of `repro all`.
pub fn run_all(config: &StudyConfig) -> String {
    let mut out = String::new();
    let mut add = |title: &str, body: String| {
        out.push_str(&format!("\n=== {title} ===\n\n{body}\n"));
    };
    add(
        "Table 1: IPv4 exhaustion timeline",
        experiments::table1::run().rendered,
    );
    add(
        "S2: waiting lists",
        experiments::s2_waitlists::run(config).rendered,
    );
    add(
        "Figure 1: price per IP",
        experiments::fig1::run(config).rendered,
    );
    add(
        "Figure 2: market transfers",
        experiments::fig2::run(config).rendered,
    );
    add(
        "Figure 3: inter-RIR transfers",
        experiments::fig3::run(config).rendered,
    );
    add(
        "Figure 4: advertised leasing prices",
        experiments::fig4::run().rendered,
    );
    add(
        "Figure 5: RPKI consistency rules",
        experiments::fig5::run(config).rendered,
    );
    add(
        "Figure 6: BGP delegations",
        experiments::fig6::run(config).rendered,
    );
    add(
        "S4: BGP vs RDAP coverage",
        experiments::s4_coverage::run(config).rendered,
    );
    if let Some(s5) = experiments::s5_prediction::run(config) {
        add("S5: related-work prediction models", s5.rendered);
    }
    add(
        "S6: amortization",
        experiments::s6_amortization::run().rendered,
    );
    add(
        "S6: market behaviour by business model",
        experiments::s6_behavior::run(config).rendered,
    );
    add(
        "S7: combined BGP+RPKI+RDAP estimator",
        experiments::s7_combined::run(config).rendered,
    );
    add(
        "Sensitivity: thresholds and fill windows",
        experiments::sensitivity::run(config).rendered,
    );
    out
}
