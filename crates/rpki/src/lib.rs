//! # rpki
//!
//! The RPKI substrate behind Appendix A of *When Wells Run Dry*:
//!
//! * [`roa`] — Route Origin Authorizations and RFC 6811 route-origin
//!   validation,
//! * [`snapshot`] — daily validated-ROA snapshot series with a
//!   calibrated stability mixture (most ROAs are rock-stable, a
//!   minority glitch), generated from a ground-truth
//!   [`bgpsim::scenario::LeaseWorld`],
//! * [`delegation`] — the RPKI-based delegation record: `P` has a ROA
//!   for AS *S*, a sub-prefix `P'` has a ROA for AS *T ≠ S* (inferred
//!   by the `delegation` crate's step (iv) sweep,
//!   `delegation::base::infer_rpki_delegations`),
//! * [`consistency`] — the Appendix A rule evaluator: *"if we observe
//!   a delegation on day X and on day X+M, the delegation also exists
//!   for all but N days in between"*, with fail-rate curves over (M, N)
//!   — Figure 5 — and the derived choice of the (M = 10, N = 0) rule
//!   used by the paper's extension (v).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod consistency;
pub mod delegation;
pub mod roa;
pub mod snapshot;

pub use consistency::{ConsistencyReport, ConsistencySeries, RuleOutcome};
pub use delegation::RpkiDelegation;
pub use roa::{Roa, RouteValidity};
pub use snapshot::{RoaSnapshot, SnapshotSeries, SnapshotSeriesConfig};
