//! # bgpsim
//!
//! A self-contained AS-level Internet model that produces the same
//! observable surface the paper's delegation-inference pipeline
//! consumes from RIPE RIS, Route Views and Isolario:
//! *daily sets of (prefix, AS path, monitor) observations*.
//!
//! Pieces:
//!
//! * [`topology`] — a three-tier AS topology (transit-free clique,
//!   regional transits, stubs) with organizations owning one or more
//!   ASes, and valley-free path computation between any two ASes,
//! * [`scenario`] — ground-truth lease worlds: who owns which block,
//!   who leases which sub-block when, and which of that is announced
//!   in BGP (including on-off announcement patterns, BGP-invisible
//!   leases, intra-organization delegations, MOAS and AS_SET noise,
//!   more-specific hijacks and scrubbing services),
//! * [`observe`] — renders a world into per-day route observations at
//!   a configurable set of monitors, with per-monitor visibility loss,
//! * [`mrt2`] — the RFC 6396 codec (`TABLE_DUMP_V2` RIBs, `BGP4MP`
//!   update messages) the archive is stored in,
//! * [`updates`] — the collector archive: daily RIB and update files
//!   with the paper's "if an update file is missing, use the next
//!   available RIB" fallback behaviour,
//! * [`query`] — a filtered per-prefix element scan over archive files.
//!
//! Everything is seeded and deterministic; generating ~2.4 years of
//! daily observations for a few thousand prefixes takes well under a
//! second per simulated month.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bgp;
pub mod engine;
pub mod mrt2;
pub mod observe;
pub mod par;
pub mod query;
pub mod scenario;
pub mod topology;
pub mod updates;

pub use observe::{ObservationDay, RouteObservation, VisibilityModel};
pub use scenario::{Lease, LeaseWorld, WorldConfig};
pub use topology::{AsNode, Tier, Topology, TopologyConfig};
