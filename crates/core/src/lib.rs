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
//! seeds, and one runner per paper artifact regenerates it. The
//! [`catalogue`] lists every artifact (Table 1, Figures 1–6, §2 and
//! §4–§7, the Appendix A sweeps) with its runner under
//! [`experiments`].
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
pub mod catalogue;
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
    catalogue::report(config, None)
}
