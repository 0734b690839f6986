//! Business-model-driven market behaviour (§6).
//!
//! The paper's discussion ties how an organization engages with the
//! leasing and transfer markets to its business model:
//!
//! * **ISPs** buy blocks *larger* than /20 intending to lease parts
//!   out to customers,
//! * **long-term customers (enterprises)** buy blocks *smaller* than
//!   /20 and terminate their leases,
//! * **young businesses (startups)** lease small blocks, grow, and buy
//!   once funded,
//! * **VPN providers** continuously lease but *rotate* the actual IPs
//!   so blocking is harder,
//! * **spammers** use short-lived leases of varying sizes while
//!   keeping their own space clean,
//! * **buy and lease back**: space-rich organizations sell to a broker
//!   and lease back what they need, for immediate cash flow with a
//!   guaranteed supply.
//!
//! [`simulate_behaviors`] turns those rules into dated action traces;
//! the aggregate statistics reproduce §6's qualitative claims and the
//! buy-and-lease-back cash-flow model quantifies the contract.

use nettypes::date::{Date, DateRange};
use rand::prelude::*;
use rand_pcg::Pcg64Mcg;
use registry::org::{OrgId, OrgKind};
use serde::{Deserialize, Serialize};

/// One market action by one organization.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum MarketAction {
    /// Buy a block of the given prefix length.
    Buy {
        /// Prefix length bought.
        len: u8,
    },
    /// Start a lease of the given length for the given months.
    Lease {
        /// Prefix length leased.
        len: u8,
        /// Contract length in months.
        months: u32,
    },
    /// Terminate an existing lease (e.g. after buying).
    TerminateLease,
    /// Rotate the leased addresses (same size, different IPs).
    Rotate,
    /// Sell own space to a broker and lease part of it back.
    SellAndLeaseBack {
        /// Prefix length sold.
        sold_len: u8,
        /// Prefix length leased back.
        leaseback_len: u8,
    },
}

/// A dated action in an organization's trace.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TracedAction {
    /// When.
    pub date: Date,
    /// Who.
    pub org: OrgId,
    /// The org's business model.
    pub kind: OrgKind,
    /// What.
    pub action: MarketAction,
}

/// Configuration for the behaviour simulation.
#[derive(Clone, Debug)]
pub struct BehaviorConfig {
    /// RNG seed.
    pub seed: u64,
    /// Simulated window.
    pub span: DateRange,
    /// Organizations per kind.
    pub orgs_per_kind: usize,
}

/// Simulate per-kind behaviour traces.
pub fn simulate_behaviors(config: &BehaviorConfig) -> Vec<TracedAction> {
    let mut rng = Pcg64Mcg::seed_from_u64(config.seed ^ 0xBE4A_F10E_0000_0007);
    let mut out = Vec::new();
    let days = config.span.num_days();
    let mut org_counter = 0u32;

    for kind in OrgKind::ALL {
        for _ in 0..config.orgs_per_kind {
            let org = OrgId(5_000_000 + org_counter);
            org_counter += 1;
            let push = |date: Date, action: MarketAction, out: &mut Vec<TracedAction>| {
                out.push(TracedAction {
                    date,
                    org,
                    kind,
                    action,
                })
            };
            match kind {
                OrgKind::Isp => {
                    // Buys large (/17–/19), then leases parts out —
                    // the leasing-out side appears as the counterparty
                    // of startup/VPN leases; here we record the buys.
                    let d = config.span.start + rng.gen_range(0..days);
                    push(
                        d,
                        MarketAction::Buy {
                            len: rng.gen_range(17..=19),
                        },
                        &mut out,
                    );
                }
                OrgKind::Enterprise => {
                    // Buys small (/21–/24) and terminates its lease.
                    let d = config.span.start + rng.gen_range(0..days.max(31) - 30);
                    let len = rng.gen_range(21..=24);
                    push(d, MarketAction::Buy { len }, &mut out);
                    push(
                        d + rng.gen_range(1..=30),
                        MarketAction::TerminateLease,
                        &mut out,
                    );
                }
                OrgKind::Startup => {
                    // Leases small, upgrades, eventually buys.
                    let mut d = config.span.start + rng.gen_range(0..days / 3);
                    let mut len = 24u8;
                    push(d, MarketAction::Lease { len, months: 3 }, &mut out);
                    while rng.gen::<f64>() < 0.7 && len > 22 && d < config.span.end - 120 {
                        d += rng.gen_range(60..=120);
                        len -= 1;
                        push(d, MarketAction::Lease { len, months: 6 }, &mut out);
                    }
                    if rng.gen::<f64>() < 0.6 && d < config.span.end - 30 {
                        let buy_day = (d + rng.gen_range(30..=60)).min(config.span.end);
                        push(buy_day, MarketAction::Buy { len: len.max(22) }, &mut out);
                        push(buy_day, MarketAction::TerminateLease, &mut out);
                    }
                }
                OrgKind::VpnProvider => {
                    // One long lease, rotated frequently.
                    let d0 = config.span.start + rng.gen_range(0..days / 4);
                    push(
                        d0,
                        MarketAction::Lease {
                            len: 23,
                            months: 12,
                        },
                        &mut out,
                    );
                    let mut d = d0;
                    loop {
                        d += rng.gen_range(20..=40);
                        if d > config.span.end {
                            break;
                        }
                        push(d, MarketAction::Rotate, &mut out);
                    }
                }
                OrgKind::Spammer => {
                    // Many short leases of varying sizes.
                    let n = rng.gen_range(4..=10);
                    for _ in 0..n {
                        let d = config.span.start + rng.gen_range(0..days);
                        push(
                            d,
                            MarketAction::Lease {
                                len: rng.gen_range(22..=24),
                                months: 1,
                            },
                            &mut out,
                        );
                    }
                }
                OrgKind::Hoster => {
                    // Leases bundled with infrastructure; medium blocks.
                    let d = config.span.start + rng.gen_range(0..days);
                    push(
                        d,
                        MarketAction::Lease {
                            len: rng.gen_range(20..=22),
                            months: 12,
                        },
                        &mut out,
                    );
                }
                OrgKind::LeasingProvider => {
                    // Space-rich: sells big and leases back a part.
                    if rng.gen::<f64>() < 0.5 {
                        let d = config.span.start + rng.gen_range(0..days);
                        push(
                            d,
                            MarketAction::SellAndLeaseBack {
                                sold_len: rng.gen_range(16..=18),
                                leaseback_len: rng.gen_range(19..=20),
                            },
                            &mut out,
                        );
                    }
                }
            }
        }
    }
    out.sort_by_key(|t| (t.date, t.org.0));
    out
}

/// Per-kind aggregate statistics.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct KindProfile {
    /// Mean bought block size in addresses (0 if the kind never buys).
    pub mean_buy_addresses: f64,
    /// Number of buys.
    pub buys: usize,
    /// Number of lease starts.
    pub leases: usize,
    /// Mean lease contract length in months.
    pub mean_lease_months: f64,
    /// Rotations per lease.
    pub rotations_per_lease: f64,
    /// Lease terminations.
    pub terminations: usize,
    /// Sell-and-lease-back contracts.
    pub leasebacks: usize,
}

/// Aggregate a trace into per-kind profiles.
pub fn profile_by_kind(trace: &[TracedAction]) -> Vec<(OrgKind, KindProfile)> {
    let mut out: Vec<(OrgKind, KindProfile)> = OrgKind::ALL
        .iter()
        .map(|&k| (k, KindProfile::default()))
        .collect();
    for t in trace {
        let profile = &mut out
            .iter_mut()
            .find(|(k, _)| *k == t.kind)
            .expect("all kinds present")
            .1;
        match t.action {
            MarketAction::Buy { len } => {
                profile.buys += 1;
                profile.mean_buy_addresses += (1u64 << (32 - len as u32)) as f64;
            }
            MarketAction::Lease { months, .. } => {
                profile.leases += 1;
                profile.mean_lease_months += months as f64;
            }
            MarketAction::Rotate => profile.rotations_per_lease += 1.0,
            MarketAction::TerminateLease => profile.terminations += 1,
            MarketAction::SellAndLeaseBack { .. } => profile.leasebacks += 1,
        }
    }
    for (_, p) in &mut out {
        if p.buys > 0 {
            p.mean_buy_addresses /= p.buys as f64;
        }
        if p.leases > 0 {
            p.mean_lease_months /= p.leases as f64;
            p.rotations_per_lease /= p.leases as f64;
        }
    }
    out
}

/// The buy-and-lease-back cash-flow model (§6): an organization sells
/// `sold_addresses` at `price_per_ip` through a broker taking
/// `commission` and leases back `leaseback_addresses` at
/// `lease_per_ip_month`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LeaseBackContract {
    /// Addresses sold.
    pub sold_addresses: u64,
    /// Sale price (USD/IP).
    pub price_per_ip: f64,
    /// Broker commission rate on the sale.
    pub commission: f64,
    /// Addresses leased back.
    pub leaseback_addresses: u64,
    /// Lease-back rate (USD/IP/month).
    pub lease_per_ip_month: f64,
}

impl LeaseBackContract {
    /// Immediate cash to the seller.
    pub fn immediate_cash(&self) -> f64 {
        self.sold_addresses as f64 * self.price_per_ip * (1.0 - self.commission)
    }

    /// Monthly lease-back cost.
    pub fn monthly_cost(&self) -> f64 {
        self.leaseback_addresses as f64 * self.lease_per_ip_month
    }

    /// Months until the lease-back payments consume the sale proceeds
    /// (`None` when the lease-back is free).
    pub fn cash_horizon_months(&self) -> Option<f64> {
        let m = self.monthly_cost();
        if m <= 0.0 {
            return None;
        }
        Some(self.immediate_cash() / m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettypes::date::date;

    fn trace() -> Vec<TracedAction> {
        simulate_behaviors(&BehaviorConfig {
            seed: 5,
            span: DateRange::new(date("2019-01-01"), date("2020-06-01")),
            orgs_per_kind: 60,
        })
    }

    #[test]
    fn section6_buy_size_split() {
        let profiles = profile_by_kind(&trace());
        let get = |k: OrgKind| profiles.iter().find(|(kk, _)| *kk == k).unwrap().1.clone();
        let isp = get(OrgKind::Isp);
        let ent = get(OrgKind::Enterprise);
        // ISPs buy blocks larger than /20 (> 4096 addresses)…
        assert!(
            isp.mean_buy_addresses > 4096.0,
            "{}",
            isp.mean_buy_addresses
        );
        // …long-term customers smaller than /20.
        assert!(
            ent.mean_buy_addresses < 4096.0,
            "{}",
            ent.mean_buy_addresses
        );
        assert!(isp.buys > 0 && ent.buys > 0);
        // Enterprises terminate leases when they buy.
        assert!(ent.terminations >= ent.buys);
    }

    #[test]
    fn vpn_rotation_and_spammer_churn() {
        let profiles = profile_by_kind(&trace());
        let get = |k: OrgKind| profiles.iter().find(|(kk, _)| *kk == k).unwrap().1.clone();
        let vpn = get(OrgKind::VpnProvider);
        assert!(
            vpn.rotations_per_lease > 3.0,
            "VPN rotations/lease {}",
            vpn.rotations_per_lease
        );
        let spam = get(OrgKind::Spammer);
        // Spammers: many short leases.
        assert!(
            spam.leases as f64 / 60.0 > 3.0,
            "spam leases {}",
            spam.leases
        );
        assert!(spam.mean_lease_months <= 1.5);
        // Startups lease first, a majority buy later.
        let startup = get(OrgKind::Startup);
        assert!(startup.leases > startup.buys);
        assert!(startup.buys > 0);
    }

    #[test]
    fn leaseback_contracts_exist_for_space_rich_orgs() {
        let profiles = profile_by_kind(&trace());
        let lp = profiles
            .iter()
            .find(|(k, _)| *k == OrgKind::LeasingProvider)
            .unwrap()
            .1
            .clone();
        assert!(lp.leasebacks > 10);
        // No other kind signs lease-backs.
        for (k, p) in &profiles {
            if *k != OrgKind::LeasingProvider {
                assert_eq!(p.leasebacks, 0, "{k:?}");
            }
        }
    }

    #[test]
    fn leaseback_cashflow() {
        // Sell a /16 at $22.50 with 6 % commission, lease back a /19.
        let c = LeaseBackContract {
            sold_addresses: 65_536,
            price_per_ip: 22.50,
            commission: 0.06,
            leaseback_addresses: 8_192,
            lease_per_ip_month: 0.50,
        };
        let cash = c.immediate_cash();
        assert!((cash - 65_536.0 * 22.50 * 0.94).abs() < 1e-6);
        assert!((c.monthly_cost() - 4096.0).abs() < 1e-6);
        let horizon = c.cash_horizon_months().unwrap();
        // The proceeds fund the lease-back for decades — the §6
        // rationale for the contract.
        assert!(horizon > 300.0, "horizon {horizon}");
        // Free lease-back edge case.
        let free = LeaseBackContract {
            lease_per_ip_month: 0.0,
            ..c
        };
        assert_eq!(free.cash_horizon_months(), None);
    }

    #[test]
    fn traces_sorted_and_in_window() {
        let t = trace();
        assert!(t.windows(2).all(|w| w[0].date <= w[1].date));
        let span = DateRange::new(date("2019-01-01"), date("2020-06-01"));
        assert!(t.iter().all(|a| span.contains(a.date)));
    }

    #[test]
    fn deterministic() {
        let cfg = BehaviorConfig {
            seed: 9,
            span: DateRange::new(date("2019-01-01"), date("2019-12-31")),
            orgs_per_kind: 20,
        };
        assert_eq!(simulate_behaviors(&cfg), simulate_behaviors(&cfg));
    }
}
