//! AS-to-Organization mapping snapshots.
//!
//! CAIDA publishes quarterly AS-to-Organization data sets; the paper
//! uses the 2018-01-01 → 2020-05-01 snapshots and removes intra-org
//! delegations "within the next available snapshot" — i.e. a day's
//! delegations are checked against the first snapshot at or after
//! that day (falling back to the last snapshot for trailing days).

use bgpsim::topology::Topology;
use nettypes::asn::Asn;
use nettypes::date::Date;
use registry::org::OrgId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// A dated series of `asn → org` snapshots.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct As2OrgSeries {
    snapshots: BTreeMap<Date, HashMap<Asn, OrgId>>,
}

impl As2OrgSeries {
    /// Empty series.
    pub fn new() -> Self {
        As2OrgSeries::default()
    }

    /// Add a snapshot.
    pub fn insert_snapshot(&mut self, date: Date, mapping: HashMap<Asn, OrgId>) {
        self.snapshots.insert(date, mapping);
    }

    /// Number of snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Snapshot dates in order.
    pub fn dates(&self) -> impl Iterator<Item = Date> + '_ {
        self.snapshots.keys().copied()
    }

    /// The paper's lookup rule: the *next available* snapshot at or
    /// after `day`, falling back to the latest snapshot when none
    /// follows.
    pub fn snapshot_for(&self, day: Date) -> Option<&HashMap<Asn, OrgId>> {
        self.snapshots
            .range(day..)
            .next()
            .map(|(_, m)| m)
            .or_else(|| self.snapshots.values().next_back())
    }

    /// Whether `a` and `b` belong to the same organization per the
    /// snapshot applicable to `day`. Unknown ASes never match.
    pub fn same_org(&self, day: Date, a: Asn, b: Asn) -> bool {
        let Some(snap) = self.snapshot_for(day) else {
            return false;
        };
        match (snap.get(&a), snap.get(&b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Build a quarterly series from the simulator's topology (which
    /// knows the true AS ownership). `span` bounds and `every_days`
    /// spaces the snapshots (CAIDA: ~90 days).
    pub fn from_topology(
        topology: &Topology,
        start: Date,
        end: Date,
        every_days: i64,
    ) -> As2OrgSeries {
        let _span = obs::span!("as2org_build", every_days = every_days);
        let mut series = As2OrgSeries::new();
        let mapping: HashMap<Asn, OrgId> =
            topology.nodes().iter().map(|n| (n.asn, n.org)).collect();
        let mut d = start;
        while d <= end {
            series.insert_snapshot(d, mapping.clone());
            d += every_days;
        }
        series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettypes::date::date;

    fn mk(pairs: &[(u32, u32)]) -> HashMap<Asn, OrgId> {
        pairs.iter().map(|&(a, o)| (Asn(a), OrgId(o))).collect()
    }

    #[test]
    fn next_available_snapshot_rule() {
        let mut s = As2OrgSeries::new();
        s.insert_snapshot(date("2018-01-01"), mk(&[(1, 10), (2, 10)]));
        s.insert_snapshot(date("2018-04-01"), mk(&[(1, 10), (2, 20)]));
        // A day before the second snapshot uses the second snapshot
        // ("next available").
        assert!(!s.same_org(date("2018-02-15"), Asn(1), Asn(2)));
        // A day on/before the first snapshot uses the first.
        assert!(s.same_org(date("2018-01-01"), Asn(1), Asn(2)));
        assert!(s.same_org(date("2017-12-01"), Asn(1), Asn(2)));
        // Days after the last snapshot fall back to the last.
        assert!(!s.same_org(date("2019-01-01"), Asn(1), Asn(2)));
    }

    #[test]
    fn unknown_ases_never_match() {
        let mut s = As2OrgSeries::new();
        s.insert_snapshot(date("2018-01-01"), mk(&[(1, 10)]));
        assert!(!s.same_org(date("2018-01-01"), Asn(1), Asn(99)));
        assert!(!s.same_org(date("2018-01-01"), Asn(98), Asn(99)));
        let empty = As2OrgSeries::new();
        assert!(!empty.same_org(date("2018-01-01"), Asn(1), Asn(1)));
    }

    #[test]
    fn from_topology_mirrors_ownership() {
        use bgpsim::topology::TopologyConfig;
        let topo = Topology::generate(&TopologyConfig {
            seed: 8,
            num_tier1: 3,
            num_tier2: 10,
            num_stubs: 60,
            multi_as_org_fraction: 0.3,
        });
        let s = As2OrgSeries::from_topology(&topo, date("2018-01-01"), date("2018-12-31"), 90);
        assert_eq!(s.len(), 5); // Jan, Apr, Jul, Oct, (Dec 27)
        let (org, ases) = topo.multi_as_orgs().next().expect("multi-AS org exists");
        let _ = org;
        assert!(s.same_org(date("2018-06-01"), ases[0], ases[1]));
        // Two single-AS orgs don't match.
        let singles: Vec<Asn> = topo
            .nodes()
            .iter()
            .filter(|n| topo.ases_of_org(n.org).len() == 1)
            .map(|n| n.asn)
            .take(2)
            .collect();
        if singles.len() == 2 {
            assert!(!s.same_org(date("2018-06-01"), singles[0], singles[1]));
        }
    }
}
