//! The §4 RDAP-delegation extraction pipeline.
//!
//! Reproduces the paper's procedure for the RIPE region:
//!
//! 1. select all `inetnum` objects with delegation-related types
//!    (`SUB-ALLOCATED PA`, `ASSIGNED PA`) from the WHOIS snapshot,
//! 2. **ignore all blocks smaller than a /24** (91.4 % of the
//!    `ASSIGNED PA` entries) to minimise load on the RDAP service,
//! 3. query the RDAP service for each remaining block to learn its
//!    `parentHandle`,
//! 4. remove intra-organization delegations (child has the same
//!    registrant or administrator as the parent).
//!
//! The result is the set of *RDAP-delegations* compared against
//! BGP-delegations in the paper's §4.

use crate::database::WhoisDb;
use crate::server::{RdapError, RdapServer};
use nettypes::prefix::Prefix;
use nettypes::range::IpRange;
use nettypes::set::PrefixSet;
use serde::{Deserialize, Serialize};

/// The smallest block queried, in addresses (the paper's /24).
const MIN_BLOCK_ADDRESSES: u64 = 256;

/// One extracted delegation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RdapDelegation {
    /// The delegated (child) range.
    pub child: IpRange,
    /// The child's registrant org handle.
    pub child_org: String,
    /// Parent handle as reported by RDAP.
    pub parent_handle: String,
    /// The parent's registrant org handle.
    pub parent_org: String,
}

/// Pipeline accounting, mirroring the numbers §4 reports.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineStats {
    /// Delegation-related objects found in the snapshot.
    pub candidate_objects: usize,
    /// Of those, objects smaller than the /24 threshold (skipped).
    pub skipped_small: usize,
    /// RDAP queries issued.
    pub queries_issued: usize,
    /// Queries answered 404 (object vanished between snapshot and
    /// query, or filler noise).
    pub not_found: usize,
    /// Rate-limit pauses taken.
    pub rate_limit_pauses: usize,
    /// Delegations dropped as intra-organization.
    pub dropped_intra_org: usize,
    /// Final delegation count.
    pub delegations: usize,
}

/// Run the extraction against a WHOIS snapshot (the query input space)
/// and an RDAP service.
///
/// Blocks smaller than a /24 (256 addresses) are skipped. On a 429
/// the pipeline waits for the next rate-limit window and asks again,
/// counting the pause in `rate_limit_pauses`, so it always completes.
pub fn extract_delegations(
    snapshot: &WhoisDb,
    server: &RdapServer,
) -> (Vec<RdapDelegation>, PipelineStats) {
    let sp = obs::span!("rdap_extract", unit = "objects");
    sp.add_items(snapshot.len() as u64);
    let mut stats = PipelineStats::default();
    let mut out = Vec::new();

    for obj in snapshot.objects() {
        if !obj.status.is_delegation_related() {
            continue;
        }
        stats.candidate_objects += 1;
        if obj.num_addresses() < MIN_BLOCK_ADDRESSES {
            stats.skipped_small += 1;
            continue;
        }
        // Query RDAP, pausing on 429s.
        let resp = loop {
            stats.queries_issued += 1;
            match server.query(obj.range) {
                Ok(r) => break Some(r),
                Err(RdapError::NotFound) => {
                    stats.not_found += 1;
                    break None;
                }
                Err(RdapError::RateLimited) => {
                    stats.rate_limit_pauses += 1;
                    server.reset_window(); // "wait for the next window"
                }
            }
        };
        let Some(resp) = resp else { continue };
        let Some(parent_handle) = resp.parent_handle else {
            continue; // top-level object: not a delegation
        };
        // The parent object lives in the same snapshot, so its org and
        // admin handles are read there rather than by a second RDAP
        // query (the paper likewise uses its local snapshot for parent
        // attributes). On a duplicate handle the first object wins.
        let Some(parent) = snapshot.by_handle(&parent_handle) else {
            continue;
        };
        // Intra-org filter: same registrant or same administrator.
        if parent.org == obj.org || parent.admin_c == obj.admin_c {
            stats.dropped_intra_org += 1;
            continue;
        }
        out.push(RdapDelegation {
            child: obj.range,
            child_org: obj.org.clone(),
            parent_handle,
            parent_org: parent.org.clone(),
        });
    }
    stats.delegations = out.len();
    (out, stats)
}

/// The set of addresses covered by a list of RDAP delegations —
/// the denominator/numerator of the §4 coverage comparison.
pub fn delegated_address_set(delegations: &[RdapDelegation]) -> PrefixSet {
    delegations
        .iter()
        .flat_map(|d| d.child.to_cidrs())
        .collect::<Vec<Prefix>>()
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::DbBuildConfig;
    use crate::inetnum::{Inetnum, InetnumStatus};
    use bgpsim::scenario::{LeaseWorld, WorldConfig};
    use bgpsim::topology::TopologyConfig;
    use nettypes::date::{date, DateRange};

    fn world() -> LeaseWorld {
        LeaseWorld::generate(&WorldConfig {
            seed: 31,
            span: DateRange::new(date("2018-01-01"), date("2018-06-30")),
            topology: TopologyConfig {
                seed: 31,
                num_tier1: 4,
                num_tier2: 12,
                num_stubs: 100,
                multi_as_org_fraction: 0.15,
            },
            num_allocations: 50,
            initial_active_leases: 150,
            ..Default::default()
        })
    }

    #[test]
    fn recovers_registered_leases() {
        let w = world();
        let as_of = date("2018-04-01");
        let db = WhoisDb::build_from_world(&w, as_of, &DbBuildConfig::default());
        let server = RdapServer::new(db.clone());
        let (delegations, stats) = extract_delegations(&db, &server);

        let registered = w.registered_leases_on(as_of).len();
        assert_eq!(
            stats.delegations, registered,
            "pipeline should recover exactly the registered leases; stats: {stats:?}"
        );
        assert_eq!(delegations.len(), registered);
        // Every recovered delegation is a true registered lease.
        for d in &delegations {
            let p = d.child.as_single_prefix().expect("lease blocks are CIDR");
            assert!(
                w.registered_leases_on(as_of).iter().any(|l| l.prefix == p),
                "{p} is not a registered lease"
            );
        }
    }

    #[test]
    fn skips_small_blocks_and_counts_them() {
        let w = world();
        let db = WhoisDb::build_from_world(&w, date("2018-04-01"), &DbBuildConfig::default());
        let server = RdapServer::new(db.clone());
        let (_, stats) = extract_delegations(&db, &server);
        assert!(stats.skipped_small > 0);
        // ~91.4 % of candidates are tiny.
        let frac = stats.skipped_small as f64 / stats.candidate_objects as f64;
        assert!((0.85..=0.95).contains(&frac), "tiny fraction {frac}");
        // No RDAP query was spent on them.
        assert_eq!(
            stats.queries_issued - stats.rate_limit_pauses,
            stats.candidate_objects - stats.skipped_small
        );
    }

    #[test]
    fn a_slash_24_is_queried_and_a_slash_25_is_not() {
        let mk = |r: &str, status, org: &str| Inetnum {
            range: r.parse().unwrap(),
            netname: "X".into(),
            status,
            org: org.into(),
            admin_c: format!("AC-{org}"),
            created: date("2018-01-01"),
        };
        let db: WhoisDb = [
            mk("10.0.0.0 - 10.0.255.255", InetnumStatus::AllocatedPa, "LIR"),
            mk("10.0.1.0 - 10.0.1.255", InetnumStatus::AssignedPa, "A"),
            mk("10.0.2.0 - 10.0.2.127", InetnumStatus::AssignedPa, "B"),
        ]
        .into_iter()
        .collect();
        let server = RdapServer::new(db.clone());
        let (delegations, stats) = extract_delegations(&db, &server);
        assert_eq!((stats.candidate_objects, stats.skipped_small), (2, 1));
        assert_eq!(stats.queries_issued, 1);
        assert_eq!(delegations.len(), 1);
        assert_eq!(delegations[0].child_org, "A");
    }

    #[test]
    fn drops_intra_org_delegations() {
        let mk = |r: &str, status, org: &str, admin: &str| Inetnum {
            range: r.parse().unwrap(),
            netname: "X".into(),
            status,
            org: org.into(),
            admin_c: admin.into(),
            created: date("2018-01-01"),
        };
        let db: WhoisDb = [
            mk(
                "10.0.0.0 - 10.0.255.255",
                InetnumStatus::AllocatedPa,
                "LIR",
                "AC-L",
            ),
            // Same registrant — intra-org.
            mk(
                "10.0.0.0 - 10.0.0.255",
                InetnumStatus::AssignedPa,
                "LIR",
                "AC-X",
            ),
            // Same admin — intra-org.
            mk(
                "10.0.1.0 - 10.0.1.255",
                InetnumStatus::AssignedPa,
                "OTHER",
                "AC-L",
            ),
            // A genuine delegation.
            mk(
                "10.0.2.0 - 10.0.2.255",
                InetnumStatus::AssignedPa,
                "CUST",
                "AC-C",
            ),
        ]
        .into_iter()
        .collect();
        let server = RdapServer::new(db.clone());
        let (delegations, stats) = extract_delegations(&db, &server);
        assert_eq!(stats.dropped_intra_org, 2);
        assert_eq!(delegations.len(), 1);
        assert_eq!(delegations[0].child_org, "CUST");
        assert_eq!(delegations[0].parent_org, "LIR");
    }

    #[test]
    fn duplicate_parent_handles_resolve_to_the_first_object() {
        let mk = |r: &str, status, org: &str, admin: &str| Inetnum {
            range: r.parse().unwrap(),
            netname: "X".into(),
            status,
            org: org.into(),
            admin_c: admin.into(),
            created: date("2018-01-01"),
        };
        // Two objects on one range share a handle; only the first is
        // a different organization from the child.
        let db: WhoisDb = [
            mk(
                "10.0.0.0 - 10.0.255.255",
                InetnumStatus::AllocatedPa,
                "LIR",
                "AC-L",
            ),
            mk(
                "10.0.0.0 - 10.0.255.255",
                InetnumStatus::AllocatedPa,
                "CUST",
                "AC-C",
            ),
            mk(
                "10.0.2.0 - 10.0.2.255",
                InetnumStatus::AssignedPa,
                "CUST",
                "AC-C",
            ),
        ]
        .into_iter()
        .collect();
        let server = RdapServer::new(db.clone());
        let (delegations, stats) = extract_delegations(&db, &server);
        assert_eq!(stats.dropped_intra_org, 0, "{stats:?}");
        assert_eq!(delegations.len(), 1);
        assert_eq!(delegations[0].parent_org, "LIR");
    }

    #[test]
    fn survives_rate_limiting() {
        let w = world();
        let db = WhoisDb::build_from_world(&w, date("2018-04-01"), &DbBuildConfig::default());
        let strict = RdapServer::with_rate_limit(db.clone(), 10);
        let (with_limit, stats) = extract_delegations(&db, &strict);
        assert!(stats.rate_limit_pauses > 0, "limit never hit: {stats:?}");
        let relaxed = RdapServer::new(db.clone());
        let (without_limit, _) = extract_delegations(&db, &relaxed);
        assert_eq!(with_limit, without_limit, "rate limiting changed results");
    }

    #[test]
    fn delegated_address_set_counts() {
        let d = |r: &str| RdapDelegation {
            child: r.parse().unwrap(),
            child_org: "C".into(),
            parent_handle: "P".into(),
            parent_org: "P".into(),
        };
        let set = delegated_address_set(&[
            d("10.0.0.0 - 10.0.0.255"),
            d("10.0.1.0 - 10.0.1.255"),
            d("10.0.0.0 - 10.0.0.255"), // duplicate must not double-count
        ]);
        assert_eq!(set.num_addresses(), 512);
    }
}
