//! # rdap
//!
//! The registry-database side of the leasing-market measurement (§4 of
//! *When Wells Run Dry*): a WHOIS `inetnum` database, a RIPE-style
//! split-file snapshot codec, an RDAP query service, and the
//! delegation-extraction pipeline that the paper runs against the RIPE
//! region:
//!
//! * [`inetnum`] — `inetnum` objects with the RIPE status hierarchy
//!   (`ALLOCATED PA`, `SUB-ALLOCATED PA`, `ASSIGNED PA`, …),
//! * [`database`] — an in-memory WHOIS database, indexed by range once
//!   at construction, with covering-object (parent) resolution,
//!   buildable from a ground-truth [`bgpsim::scenario::LeaseWorld`],
//! * [`snapshot`] — the `ripe.db.inetnum` split-file text format,
//! * [`server`] — an RDAP interface returning JSON responses with
//!   `handle` / `parentHandle`, including the operational constraints
//!   the paper works around (no wildcard or range queries, rate
//!   limits),
//! * [`whois`] — the classic port-43 WHOIS text protocol with the
//!   RIPE hierarchy flags (`-L`, `-m`, `-M`, `-x`),
//! * [`pipeline`] — the paper's §4 extraction: select
//!   delegation-related inetnum types from a WHOIS snapshot, ignore
//!   blocks smaller than a /24 (to spare the RDAP service), query RDAP
//!   for the parent, and drop intra-organization delegations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod database;
mod index;
pub mod inetnum;
pub mod pipeline;
pub mod server;
pub mod snapshot;
pub mod whois;

pub use database::{DbBuildConfig, WhoisDb};
pub use inetnum::{Inetnum, InetnumStatus};
pub use pipeline::{extract_delegations, PipelineStats, RdapDelegation};
pub use server::{RdapError, RdapResponse, RdapServer};
pub use whois::{WhoisQuery, WhoisServer};
