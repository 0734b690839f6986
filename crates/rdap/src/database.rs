//! The in-memory WHOIS database, buildable from a ground-truth world.
//!
//! The builder reproduces the empirical structure the paper reports
//! for the RIPE database in June 2020: a small number of
//! `SUB-ALLOCATED PA` objects (~4.5 k), millions of `ASSIGNED PA`
//! objects of which **91.4 % cover less than a /24**, and intra-org
//! assignments (same registrant/admin as the parent) that the pipeline
//! must filter out.

use crate::index::RangeIndex;
use crate::inetnum::{range_of_handle, Inetnum, InetnumStatus};
use bgpsim::scenario::LeaseWorld;
use nettypes::date::Date;
use nettypes::range::IpRange;
use rand::prelude::*;
use rand_pcg::Pcg64Mcg;
use std::cmp::Reverse;

/// Controls the synthetic database shape.
#[derive(Clone, Debug)]
pub struct DbBuildConfig {
    /// RNG seed for the filler objects.
    pub seed: u64,
    /// Fraction of `ASSIGNED PA` objects that cover less than a /24
    /// (paper: 91.4 %).
    pub tiny_assignment_fraction: f64,
    /// Fraction of ≥/24 assignments that are intra-org (same
    /// registrant as the parent allocation), to be filtered by the
    /// pipeline.
    pub intra_org_fraction: f64,
    /// Fraction of registered leases recorded as `SUB-ALLOCATED PA`
    /// rather than `ASSIGNED PA`.
    pub sub_allocated_fraction: f64,
}

impl Default for DbBuildConfig {
    fn default() -> Self {
        DbBuildConfig {
            seed: 4242,
            tiny_assignment_fraction: 0.914,
            intra_org_fraction: 0.10,
            sub_allocated_fraction: 0.05,
        }
    }
}

/// The WHOIS database: an immutable object store, indexed by range
/// once when it is collected.
///
/// Every lookup answers as a scan in insertion order would: among the
/// candidates, the smallest object wins and ties go to the object
/// inserted first.
#[derive(Clone, Debug)]
pub struct WhoisDb {
    objects: Vec<Inetnum>,
    index: RangeIndex,
}

impl FromIterator<Inetnum> for WhoisDb {
    fn from_iter<I: IntoIterator<Item = Inetnum>>(iter: I) -> Self {
        let objects: Vec<Inetnum> = iter.into_iter().collect();
        let index = RangeIndex::new(objects.iter().map(|o| o.range));
        WhoisDb { objects, index }
    }
}

impl WhoisDb {
    /// All objects, in insertion order.
    pub fn objects(&self) -> &[Inetnum] {
        &self.objects
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Objects of a given status.
    pub fn of_status(&self, status: InetnumStatus) -> impl Iterator<Item = &Inetnum> {
        self.objects.iter().filter(move |o| o.status == status)
    }

    /// Find the object whose range exactly matches.
    pub fn exact(&self, range: IpRange) -> Option<&Inetnum> {
        self.index.exact(range).and_then(|id| self.objects.get(id))
    }

    /// The object whose [`Inetnum::handle`] is `handle`; `None` for a
    /// malformed handle.
    pub fn by_handle(&self, handle: &str) -> Option<&Inetnum> {
        self.exact(range_of_handle(handle)?)
    }

    /// The *smallest strictly-covering* object for a range — RDAP's
    /// notion of the parent network.
    pub fn parent_of(&self, range: IpRange) -> Option<&Inetnum> {
        self.smallest_covering(range.start(), range.end(), Some(range))
    }

    /// The smallest object containing `range`, itself included.
    pub fn smallest_containing(&self, range: IpRange) -> Option<&Inetnum> {
        self.smallest_covering(range.start(), range.end(), None)
    }

    /// The smallest object containing the address `addr`.
    pub fn smallest_containing_address(&self, addr: u32) -> Option<&Inetnum> {
        self.smallest_covering(addr, addr, None)
    }

    /// Every object strictly containing `range`, least specific first.
    pub fn less_specific(&self, range: IpRange) -> Vec<&Inetnum> {
        let mut up = Vec::new();
        self.index.covering(range.start(), range.end(), |r, id| {
            if r != range {
                up.push((Reverse(r.num_addresses()), id));
            }
        });
        up.sort_unstable();
        up.into_iter()
            .filter_map(|(_, id)| self.objects.get(id))
            .collect()
    }

    /// Every object strictly inside `range`, ordered by range.
    pub fn more_specific(&self, range: IpRange) -> impl Iterator<Item = &Inetnum> {
        self.index
            .within(range)
            .filter(move |&(r, _)| r != range)
            .filter_map(|(_, id)| self.objects.get(id))
    }

    /// The smallest object covering `start..=end` other than one whose
    /// range is `skip`.
    fn smallest_covering(&self, start: u32, end: u32, skip: Option<IpRange>) -> Option<&Inetnum> {
        let mut best: Option<(u64, usize)> = None;
        self.index.covering(start, end, |r, id| {
            if Some(r) != skip {
                let key = (r.num_addresses(), id);
                best = Some(best.map_or(key, |b| b.min(key)));
            }
        });
        best.and_then(|(_, id)| self.objects.get(id))
    }

    /// Build the database for a world snapshot at `as_of`.
    ///
    /// * every allocation becomes `ALLOCATED PA`,
    /// * every registered, active lease becomes `ASSIGNED PA` (or
    ///   `SUB-ALLOCATED PA` with the configured probability),
    /// * filler: tiny (< /24) `ASSIGNED PA` objects inside allocations
    ///   so the `tiny_assignment_fraction` holds,
    /// * noise: intra-org assignments with the parent's registrant.
    pub fn build_from_world(world: &LeaseWorld, as_of: Date, config: &DbBuildConfig) -> WhoisDb {
        let _sp = obs::span!("whois_db_build");
        let mut rng = Pcg64Mcg::seed_from_u64(config.seed ^ 0x0DA7_ABA5_0000_0006);
        let mut objects = Vec::new();

        for (i, a) in world.allocations.iter().enumerate() {
            objects.push(Inetnum {
                range: IpRange::from_prefix(a.prefix),
                netname: format!("ALLOC-{i}"),
                status: InetnumStatus::AllocatedPa,
                org: a.org.to_string(),
                admin_c: format!("AC-{}", a.org.0),
                created: as_of - 2000,
            });
        }

        // Registered leases — the real delegations the pipeline should
        // recover.
        let mut lease_count = 0usize;
        for l in world.registered_leases_on(as_of) {
            let status = if rng.gen::<f64>() < config.sub_allocated_fraction {
                InetnumStatus::SubAllocatedPa
            } else {
                InetnumStatus::AssignedPa
            };
            objects.push(Inetnum {
                range: IpRange::from_prefix(l.prefix),
                netname: format!("LEASE-{}", l.id),
                status,
                org: l.delegatee_org.to_string(),
                admin_c: format!("AC-{}", l.delegatee_org.0),
                created: l.active.start,
            });
            lease_count += 1;
        }

        // Intra-org ≥/24 assignments: same registrant as the parent.
        // Never placed inside leased space — an assignment under a
        // lease would make the lease (not the allocation) its RDAP
        // parent.
        let leased: Vec<_> = world.leases.iter().map(|l| l.prefix).collect();
        let intra_target = ((lease_count as f64) * config.intra_org_fraction).round() as usize;
        for i in 0..intra_target {
            let a = &world.allocations[rng.gen_range(0..world.allocations.len())];
            // Place in the top half of the allocation (lease carving is
            // bottom-up, so collisions are rare).
            let slash24s = 1u64 << (24 - a.prefix.len() as u64);
            let idx = slash24s - 1 - (i as u64 % (slash24s / 2).max(1));
            let Ok(p) = a.prefix.subprefix(24, idx) else {
                continue;
            };
            if leased.iter().any(|l| l.overlaps(&p)) {
                continue;
            }
            objects.push(Inetnum {
                range: IpRange::from_prefix(p),
                netname: format!("INFRA-{i}"),
                status: InetnumStatus::AssignedPa,
                org: a.org.to_string(),
                admin_c: format!("AC-{}", a.org.0),
                created: as_of - 500,
            });
        }

        // Tiny assignments so that `tiny_assignment_fraction` of all
        // ASSIGNED PA objects are smaller than /24.
        let assigned_ge24 = objects
            .iter()
            .filter(|o| o.status == InetnumStatus::AssignedPa && o.at_least_slash24())
            .count();
        let f = config.tiny_assignment_fraction.clamp(0.0, 0.99);
        let tiny_target = ((assigned_ge24 as f64) * f / (1.0 - f)).round() as usize;
        for i in 0..tiny_target {
            let a = &world.allocations[rng.gen_range(0..world.allocations.len())];
            // A /29 somewhere inside the allocation.
            let slash29s = 1u64 << (29 - a.prefix.len() as u64);
            let idx = rng.gen_range(0..slash29s);
            let Ok(p) = a.prefix.subprefix(29, idx) else {
                continue;
            };
            objects.push(Inetnum {
                range: IpRange::from_prefix(p),
                netname: format!("CUST-{i}"),
                status: InetnumStatus::AssignedPa,
                org: format!("ORG-CUST-{}", rng.gen_range(0..100_000u32)),
                admin_c: format!("AC-CUST-{}", rng.gen_range(0..100_000u32)),
                created: as_of - rng.gen_range(1..1500i64),
            });
        }

        objects.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim::scenario::WorldConfig;
    use bgpsim::topology::TopologyConfig;
    use nettypes::date::{date, DateRange};

    fn world() -> LeaseWorld {
        LeaseWorld::generate(&WorldConfig {
            seed: 21,
            span: DateRange::new(date("2018-01-01"), date("2018-06-30")),
            topology: TopologyConfig {
                seed: 21,
                num_tier1: 4,
                num_tier2: 12,
                num_stubs: 100,
                multi_as_org_fraction: 0.15,
            },
            num_allocations: 50,
            initial_active_leases: 200,
            ..Default::default()
        })
    }

    #[test]
    fn parent_resolution_picks_smallest_cover() {
        let mk = |r: &str, status, org: &str| Inetnum {
            range: r.parse().unwrap(),
            netname: "X".into(),
            status,
            org: org.into(),
            admin_c: "A".into(),
            created: date("2018-01-01"),
        };
        let db: WhoisDb = [
            mk(
                "10.0.0.0 - 10.255.255.255",
                InetnumStatus::AllocatedPa,
                "big",
            ),
            mk(
                "10.0.0.0 - 10.0.255.255",
                InetnumStatus::SubAllocatedPa,
                "mid",
            ),
            mk("10.0.0.0 - 10.0.0.255", InetnumStatus::AssignedPa, "leaf"),
        ]
        .into_iter()
        .collect();
        let child: IpRange = "10.0.0.0 - 10.0.0.255".parse().unwrap();
        let parent = db.parent_of(child).unwrap();
        assert_eq!(parent.org, "mid");
        // Parent of the /16-equivalent is the /8-equivalent.
        let mid: IpRange = "10.0.0.0 - 10.0.255.255".parse().unwrap();
        assert_eq!(db.parent_of(mid).unwrap().org, "big");
        // The top object has no parent.
        let top: IpRange = "10.0.0.0 - 10.255.255.255".parse().unwrap();
        assert!(db.parent_of(top).is_none());
        // Exact lookup works too.
        assert_eq!(db.exact(child).unwrap().org, "leaf");
    }

    #[test]
    fn build_reflects_world() {
        let w = world();
        let as_of = date("2018-04-01");
        let db = WhoisDb::build_from_world(&w, as_of, &DbBuildConfig::default());
        assert_eq!(
            db.of_status(InetnumStatus::AllocatedPa).count(),
            w.allocations.len()
        );
        let registered = w.registered_leases_on(as_of).len();
        let delegation_objs = db
            .objects()
            .iter()
            .filter(|o| o.status.is_delegation_related() && o.netname.starts_with("LEASE-"))
            .count();
        assert_eq!(delegation_objs, registered);
    }

    #[test]
    fn tiny_fraction_matches_paper() {
        let w = world();
        let db = WhoisDb::build_from_world(&w, date("2018-04-01"), &DbBuildConfig::default());
        let assigned: Vec<_> = db.of_status(InetnumStatus::AssignedPa).collect();
        let tiny = assigned.iter().filter(|o| !o.at_least_slash24()).count();
        let frac = tiny as f64 / assigned.len() as f64;
        assert!(
            (0.88..=0.94).contains(&frac),
            "tiny fraction {frac} out of band ({tiny}/{})",
            assigned.len()
        );
    }

    #[test]
    fn lease_objects_have_covering_allocation() {
        let w = world();
        let as_of = date("2018-04-01");
        let db = WhoisDb::build_from_world(&w, as_of, &DbBuildConfig::default());
        for o in db.objects() {
            if o.netname.starts_with("LEASE-") {
                let parent = db.parent_of(o.range).expect("lease has a parent");
                assert_eq!(parent.status, InetnumStatus::AllocatedPa);
                assert_ne!(parent.org, o.org, "lease {} intra-org", o.netname);
            }
        }
    }
}
