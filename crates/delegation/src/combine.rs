//! The combined estimator the paper proposes as future work.
//!
//! §7: *"We argue that future research efforts should combine routing
//! information, RPKI data, as well as the RDAP databases to obtain a
//! better picture of the leasing ecosystem and its characteristics."*
//!
//! This module implements that combination: BGP delegations (daily
//! pipeline), RPKI delegations (ROA containment), and RDAP delegations
//! (registry extraction) are merged at address granularity, with
//! per-source attribution so every estimate is auditable. The
//! simulator's ground truth then quantifies what each source adds —
//! the experiment the paper's authors could not run.

use crate::base::Delegation;
use bgpsim::scenario::LeaseWorld;
use nettypes::date::Date;
use nettypes::prefix::Prefix;
use nettypes::set::PrefixSet;
use rdap::pipeline::RdapDelegation;
use rpki::delegation::RpkiDelegation;
use serde::{Deserialize, Serialize};

/// Which sources saw a delegated block.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct SourceAttribution {
    /// Seen in BGP routing data.
    pub bgp: bool,
    /// Seen in RPKI ROAs.
    pub rpki: bool,
    /// Registered in WHOIS/RDAP.
    pub rdap: bool,
}

impl SourceAttribution {
    /// Number of agreeing sources.
    pub fn count(&self) -> u8 {
        u8::from(self.bgp) + u8::from(self.rpki) + u8::from(self.rdap)
    }
}

/// The combined leasing-market estimate for one day.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CombinedEstimate {
    /// Every delegated block seen by at least one source, with its
    /// attribution (sorted by prefix).
    pub blocks: Vec<(Prefix, SourceAttribution)>,
}

impl CombinedEstimate {
    /// Merge the three views. RDAP children that are not single CIDR
    /// blocks are decomposed into their minimal CIDR cover.
    pub fn build(
        bgp: &[Delegation],
        rpki: &[RpkiDelegation],
        rdap: &[RdapDelegation],
    ) -> CombinedEstimate {
        use std::collections::BTreeMap;
        let mut map: BTreeMap<Prefix, SourceAttribution> = BTreeMap::new();
        for d in bgp {
            map.entry(d.prefix).or_default().bgp = true;
        }
        for d in rpki {
            map.entry(d.prefix).or_default().rpki = true;
        }
        for d in rdap {
            for p in d.child.to_cidrs() {
                map.entry(p).or_default().rdap = true;
            }
        }
        CombinedEstimate {
            blocks: map.into_iter().collect(),
        }
    }

    /// Unique delegated addresses in the combined estimate.
    pub fn address_set(&self) -> PrefixSet {
        self.blocks.iter().map(|(p, _)| *p).collect()
    }

    /// Addresses contributed by blocks a *single* source saw — what
    /// would be lost by dropping any one perspective.
    pub fn exclusive_addresses(&self) -> [u64; 3] {
        let only = |f: fn(&SourceAttribution) -> bool| -> u64 {
            self.blocks
                .iter()
                .filter(|(_, a)| a.count() == 1 && f(a))
                .map(|(p, _)| *p)
                .collect::<PrefixSet>()
                .num_addresses()
        };
        [only(|a| a.bgp), only(|a| a.rpki), only(|a| a.rdap)]
    }

    /// Number of blocks seen by at least `k` sources.
    pub fn blocks_with_agreement(&self, k: u8) -> usize {
        self.blocks.iter().filter(|(_, a)| a.count() >= k).count()
    }
}

/// Ground-truth coverage of an estimate (fraction of truly leased
/// addresses captured) and its precision at address granularity.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MarketCoverage {
    /// Truly leased addresses on the evaluation day.
    pub true_addresses: u64,
    /// Addresses in the estimate.
    pub estimated_addresses: u64,
    /// Intersection.
    pub captured: u64,
    /// captured / true — how much of the market the estimate sees.
    pub market_recall: f64,
    /// captured / estimated — how much of the estimate is real.
    pub address_precision: f64,
}

/// Score an address set against the true leases active on `day`.
pub fn market_coverage(world: &LeaseWorld, day: Date, estimate: &PrefixSet) -> MarketCoverage {
    let truth: PrefixSet = world.true_leases_on(day).iter().map(|l| l.prefix).collect();
    let captured = truth.intersection_size(estimate);
    let true_addresses = truth.num_addresses();
    let estimated_addresses = estimate.num_addresses();
    MarketCoverage {
        true_addresses,
        estimated_addresses,
        captured,
        market_recall: if true_addresses > 0 {
            captured as f64 / true_addresses as f64
        } else {
            0.0
        },
        address_precision: if estimated_addresses > 0 {
            captured as f64 / estimated_addresses as f64
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettypes::asn::Asn;
    use nettypes::prefix::pfx;

    fn bgp(p: &str) -> Delegation {
        Delegation {
            prefix: pfx(p),
            parent: pfx("64.0.0.0/12"),
            delegator: Asn(1),
            delegatee: Asn(2),
        }
    }

    fn rpki(p: &str) -> RpkiDelegation {
        RpkiDelegation {
            prefix: pfx(p),
            delegator: Asn(1),
            delegatee: Asn(2),
        }
    }

    fn rdap(r: &str) -> RdapDelegation {
        RdapDelegation {
            child: r.parse().unwrap(),
            child_org: "C".into(),
            parent_handle: "P".into(),
            parent_org: "O".into(),
        }
    }

    #[test]
    fn attribution_merging() {
        let est = CombinedEstimate::build(
            &[bgp("64.0.1.0/24"), bgp("64.0.2.0/24")],
            &[rpki("64.0.1.0/24")],
            &[rdap("64.0.1.0 - 64.0.1.255"), rdap("64.0.3.0 - 64.0.3.255")],
        );
        assert_eq!(est.blocks.len(), 3);
        let get = |p: &str| {
            est.blocks
                .iter()
                .find(|(q, _)| *q == pfx(p))
                .map(|(_, a)| *a)
                .expect("block present")
        };
        let all3 = get("64.0.1.0/24");
        assert!(all3.bgp && all3.rpki && all3.rdap);
        assert_eq!(all3.count(), 3);
        assert_eq!(get("64.0.2.0/24").count(), 1);
        assert_eq!(get("64.0.3.0/24").count(), 1);
        assert_eq!(est.blocks_with_agreement(1), 3);
        assert_eq!(est.blocks_with_agreement(2), 1);
        assert_eq!(est.blocks_with_agreement(3), 1);
        assert_eq!(est.address_set().num_addresses(), 768);
    }

    #[test]
    fn exclusive_contributions() {
        let est = CombinedEstimate::build(
            &[bgp("64.0.1.0/24")],            // BGP-only
            &[rpki("64.0.2.0/23")],           // RPKI-only, bigger
            &[rdap("64.0.4.0 - 64.0.7.255")], // RDAP-only /22
        );
        let [b, k, r] = est.exclusive_addresses();
        assert_eq!(b, 256);
        assert_eq!(k, 512);
        assert_eq!(r, 1024);
    }

    #[test]
    fn non_cidr_rdap_children_decomposed() {
        let est = CombinedEstimate::build(&[], &[], &[rdap("64.0.1.0 - 64.0.2.127")]);
        // 64.0.1.0/24 + 64.0.2.0/25
        assert_eq!(est.blocks.len(), 2);
        assert_eq!(est.address_set().num_addresses(), 256 + 128);
    }

    #[test]
    fn empty_inputs() {
        let est = CombinedEstimate::build(&[], &[], &[]);
        assert!(est.blocks.is_empty());
        assert_eq!(est.address_set().num_addresses(), 0);
        assert_eq!(est.exclusive_addresses(), [0, 0, 0]);
    }
}
