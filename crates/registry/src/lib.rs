//! # registry
//!
//! A simulator for the five Regional Internet Registries (RIRs) as
//! they appear in §2 and §3 of *When Wells Run Dry* (CoNEXT '20):
//!
//! * [`rir`] — the five registries and their service regions,
//! * [`policy`] — the per-RIR exhaustion timeline and soft-landing
//!   allocation policies (Table 1 of the paper),
//! * [`pool`] — address-pool bookkeeping: allocation, recovery, and
//!   the six-month quarantine for recovered space,
//! * [`org`] — organizations / LIR memberships,
//! * [`fees`] — per-RIR membership fee schedules and the derived
//!   per-IP maintenance cost used by the §6 amortization analysis,
//! * [`waitlist`] — the post-exhaustion waiting lists (ARIN ≤202,
//!   LACNIC ≤275, RIPE ≤110 approved requests; ARIN waits ≥130 days),
//! * [`transfer`] — transfer records in the RIRs' published
//!   transfer-statistics schema, with market / M&A labelling and
//!   inter-RIR transfer policy checks,
//! * [`timeline`] — the Table 1 event log,
//! * [`stats`] — quarterly aggregations feeding Figures 2 and 3,
//! * [`simulate`] — a seeded end-to-end registry history generator
//!   (2009-10 → 2020-06) reproducing the transfer-market dynamics the
//!   paper reports.
//!
//! The real RIRs publish daily JSON transfer feeds; [`transfer`]
//! serializes the simulated log in a compatible shape so that the
//! analysis code consumes the same record structure it would consume
//! from the real feeds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fees;
pub mod org;
pub mod policy;
pub mod pool;
pub mod rir;
pub mod simulate;
pub mod stats;
pub mod timeline;
pub mod transfer;
pub mod waitlist;

pub use fees::{annual_fee, maintenance_per_ip_month, FeeQuote};
pub use org::{Org, OrgId, OrgKind, OrgRegistry};
pub use policy::{AllocationPolicy, PolicyPhase};
pub use pool::AddressPool;
pub use rir::Rir;
pub use timeline::{exhaustion_timeline, ExhaustionEvent, ExhaustionEventKind};
pub use transfer::{InterRirPolicy, Transfer, TransferKind, TransferLog};
pub use waitlist::{WaitingList, WaitingRequest};
