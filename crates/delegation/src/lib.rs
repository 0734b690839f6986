//! # delegation
//!
//! The core contribution of *When Wells Run Dry* (§4): inferring IPv4
//! prefix delegations — the observable shadow of the leasing market —
//! from BGP routing data.
//!
//! The algorithm, per observation day:
//!
//! 1. obtain the set of all prefix-origin pairs (from the monitors),
//! 2. drop pairs seen by fewer than half of all BGP monitors
//!    (limits local misconfigurations and locally-spread hijacks),
//! 3. drop pairs whose prefix is originated by an AS_SET or by
//!    multiple ASes (MOAS),
//! 4. infer a delegation `P'_{S,T}` when S originates P, T originates
//!    P', and P' is a more-specific of P,
//!
//! plus the paper's extensions (marked ⁺ in the paper):
//!
//! 5. **(iv)⁺** drop delegations between ASes of the same organization
//!    (CAIDA AS-to-Org), using the next available mapping snapshot,
//! 6. **(v)⁺** temporal consistency fill: if the same delegation is
//!    seen ten days apart with no conflicting delegation in between,
//!    materialize it for the days in between (rule validated on RPKI,
//!    Appendix A).
//!
//! Steps 1–4 form the Krenc-Feldmann (IMC'16) baseline; the
//! [`config::InferenceConfig`] presets let every analysis run both.
//!
//! Modules: [`as2org`] (mapping snapshots), [`base`] (steps 1–4),
//! [`extensions`] (iv and v), [`pipeline`] (daily driver over a
//! collector archive), [`metrics`] (Figure 6 series), [`compare`]
//! (BGP vs RDAP coverage, §4), [`eval`] (precision/recall against the
//! simulator's ground truth), and [`combine`] — the §7 future-work
//! estimator that merges BGP, RPKI and RDAP perspectives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod as2org;
pub mod base;
pub mod combine;
pub mod compare;
pub mod config;
pub mod eval;
pub mod extensions;
pub mod metrics;
pub mod pipeline;

pub use as2org::As2OrgSeries;
pub use base::{infer_base_delegations, Delegation};
pub use combine::{market_coverage, CombinedEstimate, MarketCoverage, SourceAttribution};
pub use compare::{coverage_report, CoverageReport};
pub use config::InferenceConfig;
pub use eval::{evaluate_against_truth, TruthEvaluation};
pub use metrics::{daily_metrics, DailyMetrics};
pub use pipeline::{run_pipeline, walk_days, DailyDelegations, PipelineInput};
