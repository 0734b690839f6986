//! BGP-delegations vs RDAP-delegations (§4).
//!
//! The paper's headline comparison for the RIPE region (June 2020):
//! BGP-delegations cover only **~1.85 %** of the RDAP-delegated IPs,
//! while RDAP-delegations cover **~65.7 %** of the BGP-delegated IPs —
//! neither source alone sees the whole leasing market.

use crate::base::Delegation;
use nettypes::set::PrefixSet;
use rdap::pipeline::RdapDelegation;
use serde::{Deserialize, Serialize};

/// The two-way coverage numbers.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CoverageReport {
    /// Unique addresses delegated per BGP.
    pub bgp_addresses: u64,
    /// Unique addresses delegated per RDAP.
    pub rdap_addresses: u64,
    /// Addresses in both.
    pub intersection: u64,
    /// Fraction of RDAP-delegated IPs also seen in BGP (paper: ~1.85 %).
    pub bgp_coverage_of_rdap: f64,
    /// Fraction of BGP-delegated IPs also registered in RDAP
    /// (paper: ~65.7 %).
    pub rdap_coverage_of_bgp: f64,
    /// BGP delegation count (unique prefixes).
    pub bgp_delegations: usize,
    /// RDAP delegation count.
    pub rdap_delegations: usize,
}

/// Compute the §4 coverage comparison from one day's BGP delegations
/// and the RDAP extraction.
pub fn coverage_report(bgp: &[Delegation], rdap: &[RdapDelegation]) -> CoverageReport {
    let bgp_set: PrefixSet = bgp.iter().map(|d| d.prefix).collect();
    let rdap_set: PrefixSet = rdap.iter().flat_map(|d| d.child.to_cidrs()).collect();
    let intersection = bgp_set.intersection_size(&rdap_set);
    CoverageReport {
        bgp_addresses: bgp_set.num_addresses(),
        rdap_addresses: rdap_set.num_addresses(),
        intersection,
        bgp_coverage_of_rdap: rdap_set.coverage_by(&bgp_set),
        rdap_coverage_of_bgp: bgp_set.coverage_by(&rdap_set),
        bgp_delegations: {
            let mut p: Vec<_> = bgp.iter().map(|d| d.prefix).collect();
            p.sort();
            p.dedup();
            p.len()
        },
        rdap_delegations: rdap.len(),
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

    fn rd(r: &str) -> RdapDelegation {
        RdapDelegation {
            child: r.parse().unwrap(),
            child_org: "C".into(),
            parent_handle: "P".into(),
            parent_org: "O".into(),
        }
    }

    #[test]
    fn two_way_coverage() {
        let bgp_delegs = vec![bgp("64.0.1.0/24"), bgp("64.0.2.0/24")];
        let rdap_delegs = vec![
            rd("64.0.1.0 - 64.0.1.255"),   // shared with BGP
            rd("64.0.16.0 - 64.0.31.255"), // RDAP-only /20
        ];
        let r = coverage_report(&bgp_delegs, &rdap_delegs);
        assert_eq!(r.bgp_addresses, 512);
        assert_eq!(r.rdap_addresses, 256 + 4096);
        assert_eq!(r.intersection, 256);
        assert!((r.bgp_coverage_of_rdap - 256.0 / 4352.0).abs() < 1e-12);
        assert!((r.rdap_coverage_of_bgp - 0.5).abs() < 1e-12);
        assert_eq!(r.bgp_delegations, 2);
        assert_eq!(r.rdap_delegations, 2);
    }

    #[test]
    fn duplicate_bgp_prefixes_counted_once() {
        let bgp_delegs = vec![bgp("64.0.1.0/24"), bgp("64.0.1.0/24")];
        let r = coverage_report(&bgp_delegs, &[]);
        assert_eq!(r.bgp_delegations, 1);
        assert_eq!(r.bgp_addresses, 256);
        assert_eq!(r.bgp_coverage_of_rdap, 0.0);
        assert_eq!(r.rdap_coverage_of_bgp, 0.0);
    }

    #[test]
    fn empty_inputs() {
        let r = coverage_report(&[], &[]);
        assert_eq!(r.bgp_addresses, 0);
        assert_eq!(r.rdap_addresses, 0);
        assert_eq!(r.intersection, 0);
    }
}
